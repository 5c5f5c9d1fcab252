package dnn

import "fmt"

// spec drives the programmatic construction of a zoo model. Layer counts for
// CONV/FC/RC follow Table III of the paper exactly; MAC and parameter budgets
// follow the published architectures; the share fields control how the
// budgets are distributed across layer types.
type spec struct {
	name    string
	task    Task
	conv    int
	fc      int
	rc      int
	pool    int
	norm    int
	gmacs   float64 // total MACs in units of 1e9
	mparams float64 // total parameters in units of 1e6

	convMACShare float64 // remainder after fc+rc goes to light layers
	fcMACShare   float64
	rcMACShare   float64

	convWeightShare float64 // remainder after fc+rc is spread over light layers
	fcWeightShare   float64
	rcWeightShare   float64

	inputBytes  float64
	outputBytes float64

	acc map[Precision]float64
}

const (
	giga = 1e9
	mega = 1e6
)

// build materializes a Model from the spec: CONV MACs ramp down through the
// network (early layers see high-resolution feature maps), CONV weights ramp
// up (late layers have more channels), FC/RC budgets are spread evenly, and
// the light layers (POOL/NORM/SOFTMAX/ARGMAX) receive the leftover crumbs.
func (s spec) build() *Model {
	m := &Model{
		Name:        s.name,
		Task:        s.task,
		InputBytes:  s.inputBytes,
		OutputBytes: s.outputBytes,
		accuracy:    s.acc,
	}
	totalMACs := s.gmacs * giga
	totalWeights := s.mparams * mega * 4 // FP32 bytes
	lightShare := 1 - s.convMACShare - s.fcMACShare - s.rcMACShare
	// Total activation traffic scales with input size and depth.
	totalActs := s.inputBytes * 3 * float64(1+s.conv/8+s.rc)

	nLight := s.pool + s.norm + 2 // + softmax + argmax
	layers := make([]Layer, 0, s.conv+s.fc+s.rc+nLight)

	// CONV stack with interleaved POOL/NORM.
	if s.conv > 0 {
		var rampSum, wRampSum float64
		for i := 0; i < s.conv; i++ {
			rampSum += convMACRamp(i, s.conv)
			wRampSum += convWeightRamp(i, s.conv)
		}
		poolEvery := 0
		if s.pool > 0 {
			poolEvery = s.conv/s.pool + 1
		}
		normEvery := 0
		if s.norm > 0 {
			normEvery = s.conv/s.norm + 1
		}
		poolsLeft, normsLeft := s.pool, s.norm
		for i := 0; i < s.conv; i++ {
			layers = append(layers, Layer{
				Name:            fmt.Sprintf("conv_%d", i),
				Type:            Conv,
				MACs:            totalMACs * s.convMACShare * convMACRamp(i, s.conv) / rampSum,
				WeightBytes:     totalWeights * s.convWeightShare * convWeightRamp(i, s.conv) / wRampSum,
				ActivationBytes: totalActs * 0.8 * convMACRamp(i, s.conv) / rampSum,
			})
			if poolsLeft > 0 && poolEvery > 0 && (i+1)%poolEvery == 0 {
				layers = append(layers, lightLayer(fmt.Sprintf("pool_%d", s.pool-poolsLeft), Pool, totalMACs, totalActs, lightShare, float64(nLight)))
				poolsLeft--
			}
			if normsLeft > 0 && normEvery > 0 && (i+1)%normEvery == 0 {
				layers = append(layers, lightLayer(fmt.Sprintf("norm_%d", s.norm-normsLeft), Norm, totalMACs, totalActs, lightShare, float64(nLight)))
				normsLeft--
			}
		}
		for ; poolsLeft > 0; poolsLeft-- {
			layers = append(layers, lightLayer(fmt.Sprintf("pool_%d", s.pool-poolsLeft), Pool, totalMACs, totalActs, lightShare, float64(nLight)))
		}
		for ; normsLeft > 0; normsLeft-- {
			layers = append(layers, lightLayer(fmt.Sprintf("norm_%d", s.norm-normsLeft), Norm, totalMACs, totalActs, lightShare, float64(nLight)))
		}
	}

	// Recurrent stack (transformer/LSTM blocks in the paper's taxonomy).
	for i := 0; i < s.rc; i++ {
		layers = append(layers, Layer{
			Name:            fmt.Sprintf("rc_%d", i),
			Type:            RC,
			MACs:            totalMACs * s.rcMACShare / float64(max(1, s.rc)),
			WeightBytes:     totalWeights * s.rcWeightShare / float64(max(1, s.rc)),
			ActivationBytes: totalActs * 0.15 / float64(max(1, s.rc)),
		})
	}

	// Fully-connected stack (classifier head and, for MobileNet v3 /
	// SSD MobileNet v3, the squeeze-and-excitation FCs).
	for i := 0; i < s.fc; i++ {
		layers = append(layers, Layer{
			Name:            fmt.Sprintf("fc_%d", i),
			Type:            FC,
			MACs:            totalMACs * s.fcMACShare / float64(max(1, s.fc)),
			WeightBytes:     totalWeights * s.fcWeightShare / float64(max(1, s.fc)),
			ActivationBytes: totalActs * 0.05 / float64(max(1, s.fc)),
		})
	}

	layers = append(layers,
		lightLayer("softmax", Softmax, totalMACs, totalActs, lightShare, float64(nLight)),
		lightLayer("argmax", Argmax, totalMACs, totalActs, lightShare, float64(nLight)))

	m.Layers = layers
	return m
}

// convMACRamp weights early CONV layers more heavily (high-resolution maps).
func convMACRamp(i, n int) float64 {
	if n == 1 {
		return 1
	}
	return 1.5 - float64(i)/float64(n-1)
}

// convWeightRamp weights late CONV layers more heavily (more channels).
func convWeightRamp(i, n int) float64 {
	if n == 1 {
		return 1
	}
	return 0.5 + float64(i)/float64(n-1)
}

func lightLayer(name string, t LayerType, totalMACs, totalActs, share, n float64) Layer {
	return Layer{
		Name:            name,
		Type:            t,
		MACs:            totalMACs * share / n,
		ActivationBytes: totalActs * 0.02 / n,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

const (
	imgInput224 = 224 * 224 * 3
	imgInput299 = 299 * 299 * 3
	imgInput300 = 300 * 300 * 3
	clsOutput   = 4004 // 1000-way logits + header
	detOutput   = 8192 // boxes + classes + scores
	bertInput   = 1024 // tokenized sentence
	bertOutput  = 512  // translated sentence
)

// zooSpecs lists the ten networks of Table III with their exact CONV/FC/RC
// layer counts and architecture-derived budgets.
var zooSpecs = []spec{
	{
		name: "Inception v1", task: ImageClassification,
		conv: 49, fc: 1, rc: 0, pool: 14, norm: 2,
		gmacs: 1.43, mparams: 6.6,
		convMACShare: 0.96, fcMACShare: 0.001,
		convWeightShare: 0.80, fcWeightShare: 0.19,
		inputBytes: imgInput224, outputBytes: clsOutput,
		acc: map[Precision]float64{FP32: 69.8, FP16: 64.0, INT8: 62.0},
	},
	{
		name: "Inception v3", task: ImageClassification,
		conv: 94, fc: 1, rc: 0, pool: 14, norm: 94 / 8,
		gmacs: 5.71, mparams: 23.8,
		convMACShare: 0.97, fcMACShare: 0.0004,
		convWeightShare: 0.90, fcWeightShare: 0.09,
		inputBytes: imgInput299, outputBytes: clsOutput,
		acc: map[Precision]float64{FP32: 78.0, FP16: 77.6, INT8: 74.0},
	},
	{
		name: "MobileNet v1", task: ImageClassification,
		conv: 14, fc: 1, rc: 0, pool: 1, norm: 14,
		gmacs: 0.57, mparams: 4.2,
		convMACShare: 0.94, fcMACShare: 0.002,
		convWeightShare: 0.72, fcWeightShare: 0.26,
		inputBytes: imgInput224, outputBytes: clsOutput,
		acc: map[Precision]float64{FP32: 70.9, FP16: 70.5, INT8: 65.5},
	},
	{
		name: "MobileNet v2", task: ImageClassification,
		conv: 35, fc: 1, rc: 0, pool: 1, norm: 35 / 2,
		gmacs: 0.30, mparams: 3.5,
		convMACShare: 0.93, fcMACShare: 0.004,
		convWeightShare: 0.60, fcWeightShare: 0.38,
		inputBytes: imgInput224, outputBytes: clsOutput,
		acc: map[Precision]float64{FP32: 71.8, FP16: 71.4, INT8: 66.0},
	},
	{
		name: "MobileNet v3", task: ImageClassification,
		conv: 23, fc: 20, rc: 0, pool: 1, norm: 12,
		gmacs: 0.22, mparams: 5.4,
		// The 20 squeeze-and-excitation/classifier FCs carry a real share
		// of the compute: this is what makes MobileNet v3 CPU-friendly
		// (Fig 3 of the paper).
		convMACShare: 0.70, fcMACShare: 0.26,
		convWeightShare: 0.40, fcWeightShare: 0.58,
		inputBytes: imgInput224, outputBytes: clsOutput,
		acc: map[Precision]float64{FP32: 67.4, FP16: 63.0, INT8: 58.0},
	},
	{
		name: "ResNet 50", task: ImageClassification,
		conv: 53, fc: 1, rc: 0, pool: 2, norm: 53,
		gmacs: 4.10, mparams: 25.5,
		convMACShare: 0.97, fcMACShare: 0.0005,
		convWeightShare: 0.91, fcWeightShare: 0.08,
		inputBytes: imgInput224, outputBytes: clsOutput,
		acc: map[Precision]float64{FP32: 76.1, FP16: 75.9, INT8: 74.5},
	},
	{
		name: "SSD MobileNet v1", task: ObjectDetection,
		conv: 19, fc: 1, rc: 0, pool: 1, norm: 19 / 2,
		gmacs: 1.20, mparams: 6.8,
		convMACShare: 0.95, fcMACShare: 0.002,
		convWeightShare: 0.76, fcWeightShare: 0.22,
		inputBytes: imgInput300, outputBytes: detOutput,
		acc: map[Precision]float64{FP32: 65.0, FP16: 64.6, INT8: 60.0},
	},
	{
		name: "SSD MobileNet v2", task: ObjectDetection,
		conv: 52, fc: 1, rc: 0, pool: 1, norm: 52 / 2,
		gmacs: 1.60, mparams: 4.5,
		convMACShare: 0.95, fcMACShare: 0.003,
		convWeightShare: 0.64, fcWeightShare: 0.34,
		inputBytes: imgInput300, outputBytes: detOutput,
		acc: map[Precision]float64{FP32: 67.0, FP16: 66.6, INT8: 61.5},
	},
	{
		name: "SSD MobileNet v3", task: ObjectDetection,
		conv: 28, fc: 20, rc: 0, pool: 1, norm: 14,
		gmacs: 1.02, mparams: 7.0,
		convMACShare: 0.72, fcMACShare: 0.24,
		convWeightShare: 0.42, fcWeightShare: 0.56,
		inputBytes: imgInput300, outputBytes: detOutput,
		acc: map[Precision]float64{FP32: 66.0, FP16: 62.5, INT8: 57.0},
	},
	{
		name: "MobileBERT", task: Translation,
		conv: 0, fc: 1, rc: 24, pool: 0, norm: 24,
		gmacs: 5.30, mparams: 25.3,
		fcMACShare: 0.01, rcMACShare: 0.96,
		fcWeightShare: 0.10, rcWeightShare: 0.88,
		inputBytes: bertInput, outputBytes: bertOutput,
		acc: map[Precision]float64{FP32: 90.0, FP16: 89.6, INT8: 84.0},
	},
}

var (
	zoo    []*Model
	byName map[string]*Model
)

func init() {
	byName = make(map[string]*Model, len(zooSpecs))
	for _, s := range zooSpecs {
		m := s.build()
		if err := m.Validate(); err != nil {
			panic(err)
		}
		zoo = append(zoo, m)
		byName[m.Name] = m
	}
}

// Zoo returns the ten networks of Table III in the paper's order. The
// returned slice is fresh but the models are shared; callers must not mutate
// them.
func Zoo() []*Model { return append([]*Model(nil), zoo...) }

// ByName looks up a zoo model by its Table III name.
func ByName(name string) (*Model, error) {
	if m, ok := byName[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("dnn: unknown model %q", name)
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) *Model {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}
