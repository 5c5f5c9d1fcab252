package dnn

import (
	"testing"
	"testing/quick"
)

// tableIII is the paper's exact layer composition (Table III).
var tableIII = []struct {
	name         string
	conv, fc, rc int
	task         Task
}{
	{"Inception v1", 49, 1, 0, ImageClassification},
	{"Inception v3", 94, 1, 0, ImageClassification},
	{"MobileNet v1", 14, 1, 0, ImageClassification},
	{"MobileNet v2", 35, 1, 0, ImageClassification},
	{"MobileNet v3", 23, 20, 0, ImageClassification},
	{"ResNet 50", 53, 1, 0, ImageClassification},
	{"SSD MobileNet v1", 19, 1, 0, ObjectDetection},
	{"SSD MobileNet v2", 52, 1, 0, ObjectDetection},
	{"SSD MobileNet v3", 28, 20, 0, ObjectDetection},
	{"MobileBERT", 0, 1, 24, Translation},
}

func TestZooMatchesTableIII(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 10 {
		t.Fatalf("zoo has %d models, want 10", len(zoo))
	}
	for i, want := range tableIII {
		m := zoo[i]
		if m.Name != want.name {
			t.Fatalf("zoo[%d] = %s, want %s", i, m.Name, want.name)
		}
		if m.NumConv() != want.conv || m.NumFC() != want.fc || m.NumRC() != want.rc {
			t.Errorf("%s layers = %d/%d/%d, want %d/%d/%d",
				m.Name, m.NumConv(), m.NumFC(), m.NumRC(), want.conv, want.fc, want.rc)
		}
		if m.Task != want.task {
			t.Errorf("%s task = %v, want %v", m.Name, m.Task, want.task)
		}
	}
}

func TestZooValidates(t *testing.T) {
	for _, m := range Zoo() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestZooBudgets(t *testing.T) {
	for _, m := range Zoo() {
		if m.MACs() <= 0 {
			t.Errorf("%s has no MACs", m.Name)
		}
		if m.WeightBytes() <= 0 {
			t.Errorf("%s has no weights", m.Name)
		}
		// Per-layer sums must match the totals within float tolerance.
		var macs float64
		for _, l := range m.Layers {
			macs += l.MACs
		}
		if diff := macs - m.MACs(); diff > 1 || diff < -1 {
			t.Errorf("%s MAC sum mismatch", m.Name)
		}
	}
}

func TestMACMagnitudes(t *testing.T) {
	// Spot checks against the published architectures (order of magnitude).
	cases := map[string]struct{ lo, hi float64 }{
		"MobileNet v3": {0.1e9, 0.5e9},
		"Inception v1": {1e9, 2e9},
		"ResNet 50":    {3e9, 5e9},
		"Inception v3": {4e9, 7e9},
		"MobileBERT":   {4e9, 7e9},
	}
	for name, want := range cases {
		m := MustByName(name)
		if got := m.MACs(); got < want.lo || got > want.hi {
			t.Errorf("%s MACs = %.2g, want in [%.2g, %.2g]", name, got, want.lo, want.hi)
		}
	}
}

func TestAccuracyOrdering(t *testing.T) {
	for _, m := range Zoo() {
		fp32 := m.Accuracy(FP32)
		if fp32 <= 0 || fp32 > 100 {
			t.Errorf("%s FP32 accuracy %v out of range", m.Name, fp32)
		}
		for _, p := range []Precision{FP16, INT8} {
			if a := m.Accuracy(p); a > fp32 {
				t.Errorf("%s %v accuracy %v exceeds FP32 %v", m.Name, p, a, fp32)
			}
		}
		// Unknown precision falls back to FP32.
		if m.Accuracy(Precision(99)) != fp32 {
			t.Errorf("%s unknown-precision fallback broken", m.Name)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("ResNet 50")
	if err != nil || m.Name != "ResNet 50" {
		t.Fatalf("ByName: %v, %v", m, err)
	}
	if _, err := ByName("AlexNet"); err == nil {
		t.Error("unknown model should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on unknown model")
		}
	}()
	MustByName("AlexNet")
}

// countByType walks the layers: the reference the cached summary is
// checked against.
func countByType(m *Model) map[LayerType]int {
	c := make(map[LayerType]int)
	for _, l := range m.Layers {
		c[l.Type]++
	}
	return c
}

func TestCountByType(t *testing.T) {
	m := MustByName("MobileNet v3")
	c := countByType(m)
	if c[Conv] != 23 || c[FC] != 20 {
		t.Errorf("countByType = %v", c)
	}
	if c[Softmax] != 1 || c[Argmax] != 1 {
		t.Errorf("missing light layers: %v", c)
	}
}

func TestHasRC(t *testing.T) {
	if !MustByName("MobileBERT").HasRC() {
		t.Error("MobileBERT must have RC layers")
	}
	if MustByName("ResNet 50").HasRC() {
		t.Error("ResNet 50 must not have RC layers")
	}
}

func TestPrecisionBytes(t *testing.T) {
	if FP32.BytesPerValue() != 4 || FP16.BytesPerValue() != 2 || INT8.BytesPerValue() != 1 {
		t.Error("precision byte sizes wrong")
	}
}

func TestStringers(t *testing.T) {
	if Conv.String() != "CONV" || FC.String() != "FC" || RC.String() != "RC" {
		t.Error("layer type names wrong")
	}
	if FP32.String() != "FP32" || INT8.String() != "INT8" {
		t.Error("precision names wrong")
	}
	if Translation.String() != "Translation" {
		t.Error("task name wrong")
	}
	if LayerType(99).String() == "" || Precision(99).String() == "" || Task(99).String() == "" {
		t.Error("out-of-range stringers must not be empty")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	good := MustByName("ResNet 50")
	bad := &Model{Name: "", Layers: good.Layers, InputBytes: 1, OutputBytes: 1}
	if bad.Validate() == nil {
		t.Error("nameless model should fail")
	}
	bad = &Model{Name: "x", InputBytes: 1, OutputBytes: 1}
	if bad.Validate() == nil {
		t.Error("layerless model should fail")
	}
	bad = &Model{Name: "x", Layers: []Layer{{Name: "l", MACs: -1}}, InputBytes: 1, OutputBytes: 1}
	if bad.Validate() == nil {
		t.Error("negative MACs should fail")
	}
	for _, ty := range []LayerType{-1, LayerType(NumLayerTypes), 42} {
		bad = &Model{Name: "x", Layers: []Layer{{Name: "l", Type: ty}}, InputBytes: 1, OutputBytes: 1,
			accuracy: map[Precision]float64{FP32: 1}}
		if bad.Validate() == nil {
			t.Errorf("layer type %d should fail", int(ty))
		}
	}
}

// The per-model summary is derived once; it must say what a walk over the
// layers says, for zoo models and for struct literals alike.
func TestSummaryMatchesLayers(t *testing.T) {
	models := append(Zoo(), &Model{Name: "literal", Layers: []Layer{
		{Type: RC, MACs: 3}, {Type: FC, MACs: 0.25}, {Type: Pool, MACs: 1e9}, {Type: RC, MACs: 7},
	}})
	for _, m := range models {
		counts := countByType(m)
		var macs float64
		for _, l := range m.Layers {
			macs += l.MACs
		}
		if m.NumConv() != counts[Conv] || m.NumFC() != counts[FC] || m.NumRC() != counts[RC] ||
			m.HasRC() != (counts[RC] > 0) || m.MACs() != macs {
			t.Errorf("%s: summary %d/%d/%d rc=%v macs=%v, layers say %v macs=%v",
				m.Name, m.NumConv(), m.NumFC(), m.NumRC(), m.HasRC(), m.MACs(), counts, macs)
		}
	}
}

func TestConvRampsProperty(t *testing.T) {
	f := func(rawI, rawN uint8) bool {
		n := int(rawN%100) + 1
		i := int(rawI) % n
		mr := convMACRamp(i, n)
		wr := convWeightRamp(i, n)
		return mr >= 0.5-1e-9 && mr <= 1.5+1e-9 && wr >= 0.5-1e-9 && wr <= 1.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayerFootprintsNonNegative(t *testing.T) {
	for _, m := range Zoo() {
		for _, l := range m.Layers {
			if l.MACs < 0 || l.WeightBytes < 0 || l.ActivationBytes < 0 {
				t.Fatalf("%s layer %s has negative footprint", m.Name, l.Name)
			}
		}
	}
}

func TestNewModel(t *testing.T) {
	layers := []Layer{
		{Name: "conv_0", Type: Conv, MACs: 5e8, WeightBytes: 1e6, ActivationBytes: 2e5},
		{Name: "fc_0", Type: FC, MACs: 2e6, WeightBytes: 4e6, ActivationBytes: 4e3},
	}
	m, err := NewModel("CustomNet", ImageClassification, layers, 150528, 4004,
		map[Precision]float64{FP32: 72.5, INT8: 68.0})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumConv() != 1 || m.NumFC() != 1 {
		t.Error("layer counts wrong")
	}
	if m.Accuracy(INT8) != 68 || m.Accuracy(FP16) != 72.5 {
		t.Error("accuracy map wrong")
	}
	// The constructor copies its inputs.
	layers[0].MACs = 0
	if m.Layers[0].MACs != 5e8 {
		t.Error("layers aliased")
	}
	// Validation failures propagate.
	if _, err := NewModel("", ImageClassification, layers, 1, 1,
		map[Precision]float64{FP32: 70}); err == nil {
		t.Error("nameless model should fail")
	}
	if _, err := NewModel("x", ImageClassification, layers, 1, 1,
		map[Precision]float64{INT8: 70}); err == nil {
		t.Error("missing FP32 accuracy should fail")
	}
}
