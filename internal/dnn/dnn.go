// Package dnn models deep neural networks at the granularity AutoScale
// observes them: a sequence of typed layers with compute (MAC) and memory
// (weight/activation byte) footprints, plus per-precision inference accuracy.
//
// The package ships the ten-network zoo of Table III of the paper with the
// exact CONV/FC/RC layer counts the paper reports; per-layer MAC and byte
// budgets are derived from the published architectures so that the relative
// compute/memory intensity — what the scheduler actually reacts to — matches
// the real networks.
package dnn

import (
	"fmt"
	"sync/atomic"
)

// LayerType classifies a network layer (Section II-A of the paper).
type LayerType int

// Layer types. CONV, FC and RC are the compute/memory-intensive types that
// the paper found most correlated with latency and energy; the others are
// lightweight.
const (
	Conv LayerType = iota
	FC
	RC
	Pool
	Norm
	Softmax
	Argmax
	Dropout
)

// NumLayerTypes is the number of defined layer types; per-type tables are
// indexed by LayerType over [0, NumLayerTypes).
const NumLayerTypes = int(Dropout) + 1

var layerTypeNames = [NumLayerTypes]string{"CONV", "FC", "RC", "POOL", "NORM", "SOFTMAX", "ARGMAX", "DROPOUT"}

// String returns the conventional upper-case layer-type name.
func (t LayerType) String() string {
	if int(t) < len(layerTypeNames) {
		return layerTypeNames[t]
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// Precision is the numeric format an inference executes in. Quantization
// (Section II-B) shrinks both compute and memory intensity at some accuracy
// cost.
type Precision int

// Supported precisions. FP32 is the reference; FP16 is used by mobile GPUs,
// INT8 by mobile CPUs and DSPs.
const (
	FP32 Precision = iota
	FP16
	INT8
)

// String returns the conventional precision name.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// BytesPerValue returns the storage size of one scalar in this precision.
func (p Precision) BytesPerValue() float64 {
	switch p {
	case FP16:
		return 2
	case INT8:
		return 1
	default:
		return 4
	}
}

// Task is the application domain a network serves (Table III).
type Task int

// Tasks of the zoo networks.
const (
	ImageClassification Task = iota
	ObjectDetection
	Translation
)

// String returns the task name as used in Table III.
func (t Task) String() string {
	switch t {
	case ImageClassification:
		return "Image Classification"
	case ObjectDetection:
		return "Object Detection"
	case Translation:
		return "Translation"
	}
	return fmt.Sprintf("Task(%d)", int(t))
}

// Layer is one functional layer of a network. MACs counts multiply-accumulate
// operations at FP32; WeightBytes and ActivationBytes are the FP32 parameter
// and output-activation footprints. Precision scaling is applied by the
// performance model, not stored here.
type Layer struct {
	Name            string
	Type            LayerType
	MACs            float64
	WeightBytes     float64
	ActivationBytes float64
}

// Model is an inference workload: an ordered layer list plus the I/O sizes
// that matter for offloading (what must cross the network) and the
// per-precision accuracy table. A model is immutable once it is in use:
// its layer summary here and the latency plans the simulator compiles from
// its layers are derived once.
type Model struct {
	Name string
	Task Task
	// Layers in execution order.
	Layers []Layer
	// InputBytes is the size of one inference input as transmitted when
	// offloading (e.g. a resized camera frame).
	InputBytes float64
	// OutputBytes is the size of one inference result.
	OutputBytes float64
	// accuracy[p] is the inference accuracy (0..100) at precision p.
	accuracy map[Precision]float64

	sum atomic.Pointer[summary]
}

// summary is what the per-inference paths read from the layer list: the
// Table I layer counts and the MAC total. A model's layers never change once
// it is in use, so it is derived once, on first use (which also covers
// struct-literal models).
type summary struct {
	numConv, numFC, numRC int
	macs                  float64
}

func (m *Model) summarize() *summary {
	if s := m.sum.Load(); s != nil {
		return s
	}
	s := &summary{}
	for _, l := range m.Layers {
		switch l.Type {
		case Conv:
			s.numConv++
		case FC:
			s.numFC++
		case RC:
			s.numRC++
		}
		s.macs += l.MACs
	}
	m.sum.Store(s) // racing first uses store equal summaries
	return s
}

// MACs returns the total multiply-accumulate count of the model.
func (m *Model) MACs() float64 { return m.summarize().macs }

// WeightBytes returns the total FP32 parameter footprint.
func (m *Model) WeightBytes() float64 {
	var s float64
	for _, l := range m.Layers {
		s += l.WeightBytes
	}
	return s
}

// NumConv, NumFC and NumRC are the SCONV, SFC and SRC state features of
// Table I.
func (m *Model) NumConv() int { return m.summarize().numConv }

// NumFC returns the number of fully-connected layers.
func (m *Model) NumFC() int { return m.summarize().numFC }

// NumRC returns the number of recurrent layers.
func (m *Model) NumRC() int { return m.summarize().numRC }

// HasRC reports whether the model contains recurrent layers; the mobile
// middleware of the paper (footnote 3) cannot run such models on mobile
// co-processors.
func (m *Model) HasRC() bool { return m.summarize().numRC > 0 }

// Accuracy returns the inference accuracy (percent) at precision p. Unknown
// precisions fall back to the FP32 value.
func (m *Model) Accuracy(p Precision) float64 {
	if a, ok := m.accuracy[p]; ok {
		return a
	}
	return m.accuracy[FP32]
}

// Validate checks structural invariants: a non-empty name and layer list,
// defined layer types and non-negative footprints.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("dnn: model has no name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %s has no layers", m.Name)
	}
	for i, l := range m.Layers {
		if l.Type < 0 || int(l.Type) >= NumLayerTypes {
			return fmt.Errorf("dnn: model %s layer %d (%s) has unknown type %d", m.Name, i, l.Name, int(l.Type))
		}
		if l.MACs < 0 || l.WeightBytes < 0 || l.ActivationBytes < 0 {
			return fmt.Errorf("dnn: model %s layer %d (%s) has negative footprint", m.Name, i, l.Name)
		}
	}
	if m.InputBytes <= 0 || m.OutputBytes <= 0 {
		return fmt.Errorf("dnn: model %s has non-positive I/O size", m.Name)
	}
	if _, ok := m.accuracy[FP32]; !ok {
		return fmt.Errorf("dnn: model %s lacks FP32 accuracy", m.Name)
	}
	return nil
}

// NewModel constructs a custom inference workload for scheduling — the path
// for networks outside the Table III zoo. The accuracy map gives the
// inference accuracy (0..100) per precision and must include FP32; the model
// is validated before being returned.
func NewModel(name string, task Task, layers []Layer, inputBytes, outputBytes float64, accuracy map[Precision]float64) (*Model, error) {
	acc := make(map[Precision]float64, len(accuracy))
	for p, a := range accuracy {
		acc[p] = a
	}
	m := &Model{
		Name:        name,
		Task:        task,
		Layers:      append([]Layer(nil), layers...),
		InputBytes:  inputBytes,
		OutputBytes: outputBytes,
		accuracy:    acc,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
