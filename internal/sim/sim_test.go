package sim

import (
	"math"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/radio"
	"autoscale/internal/soc"
)

func strongCond() Conditions {
	return Conditions{RSSIWLAN: radio.RegularRSSI, RSSIP2P: radio.RegularRSSI}
}

func TestTargetsCount(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("ResNet 50")
	// Mi8Pro: CPU 23 steps x {FP32, INT8} + GPU 7 x {FP32, FP16} + DSP 1
	// + connected {CPU, GPU, DSP} + cloud {CPU, GPU} = 66 actions — the
	// paper's "~66 actions" (Section V-C / footnote 8).
	if got := len(w.Targets(m)); got != 66 {
		t.Errorf("Mi8Pro targets = %d, want 66", got)
	}
	bert := dnn.MustByName("MobileBERT")
	// MobileBERT: no mobile GPU/DSP, no connected GPU/DSP.
	// CPU 23x2 + connected CPU + cloud CPU + cloud GPU = 49.
	if got := len(w.Targets(bert)); got != 49 {
		t.Errorf("Mi8Pro BERT targets = %d, want 49", got)
	}
}

func TestFeasibility(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	bert := dnn.MustByName("MobileBERT")
	if w.Feasible(bert, Target{Location: Local, Kind: soc.GPU, Prec: dnn.FP32}) {
		t.Error("BERT on mobile GPU must be infeasible")
	}
	if w.Feasible(bert, Target{Location: Local, Kind: soc.DSP, Prec: dnn.INT8}) {
		t.Error("BERT on mobile DSP must be infeasible")
	}
	if !w.Feasible(bert, Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}) {
		t.Error("BERT on cloud GPU must be feasible")
	}
	resnet := dnn.MustByName("ResNet 50")
	if w.Feasible(resnet, Target{Location: Local, Kind: soc.CPU, Step: 99, Prec: dnn.FP32}) {
		t.Error("out-of-range DVFS step must be infeasible")
	}
	if w.Feasible(resnet, Target{Location: Local, Kind: soc.GPU, Step: 0, Prec: dnn.INT8}) {
		t.Error("GPU INT8 must be infeasible")
	}
	s10e := NewWorld(soc.GalaxyS10e(), 1)
	if s10e.Feasible(resnet, Target{Location: Local, Kind: soc.DSP, Prec: dnn.INT8}) {
		t.Error("S10e has no DSP")
	}
}

func TestExpectedDeterministic(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("Inception v1")
	tgt := Target{Location: Local, Kind: soc.DSP, Prec: dnn.INT8}
	a, err := w.Expected(m, tgt, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Expected(m, tgt, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyS != b.LatencyS || a.EnergyJ != b.EnergyJ {
		t.Error("Expected must be deterministic")
	}
	if a.LatencyS <= 0 || a.EnergyJ <= 0 {
		t.Error("measurement must be positive")
	}
	if a.Accuracy != m.Accuracy(dnn.INT8) {
		t.Error("accuracy must follow the precision")
	}
	if math.Abs(a.EnergyJ-a.Breakdown.Total()) > 1e-12 {
		t.Error("energy must equal the breakdown total")
	}
}

func TestExecuteNoise(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 42)
	m := dnn.MustByName("Inception v1")
	tgt := Target{Location: Local, Kind: soc.GPU, Step: 6, Prec: dnn.FP32}
	exp, err := w.Expected(m, tgt, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	differs := false
	const n = 200
	for i := 0; i < n; i++ {
		meas, err := w.ExecuteCtx(nil, m, tgt, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if meas.LatencyS != exp.LatencyS {
			differs = true
		}
		sum += meas.LatencyS
	}
	if !differs {
		t.Error("Execute must be noisy")
	}
	if mean := sum / n; math.Abs(mean-exp.LatencyS)/exp.LatencyS > 0.02 {
		t.Errorf("noise is not zero-mean: %v vs %v", mean, exp.LatencyS)
	}
}

func TestOffloadBreakdown(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("ResNet 50")
	meas, err := w.Expected(m, Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.TTXSeconds <= 0 || meas.TRXSeconds <= 0 {
		t.Error("offload must have transfer times")
	}
	if meas.Breakdown.Radio <= 0 {
		t.Error("offload must spend radio energy")
	}
	if meas.Breakdown.Compute != 0 {
		t.Error("offload must not spend local compute energy")
	}
	if meas.LatencyS <= meas.TTXSeconds+meas.TRXSeconds {
		t.Error("total must exceed transfer alone")
	}
}

func TestWeakSignalHurtsOffload(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("ResNet 50")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	strong, _ := w.Expected(m, cloud, strongCond())
	weak, err := w.Expected(m, cloud, Conditions{RSSIWLAN: radio.WeakRSSI, RSSIP2P: radio.RegularRSSI})
	if err != nil {
		t.Fatal(err)
	}
	if weak.LatencyS < strong.LatencyS*2 {
		t.Errorf("weak signal should blow up cloud latency: %v vs %v", weak.LatencyS, strong.LatencyS)
	}
	if weak.EnergyJ <= strong.EnergyJ {
		t.Error("weak signal must cost more energy")
	}
	// Local execution is unaffected by signal strength.
	local := Target{Location: Local, Kind: soc.DSP, Prec: dnn.INT8}
	a, _ := w.Expected(m, local, strongCond())
	b, _ := w.Expected(m, local, Conditions{RSSIWLAN: -95, RSSIP2P: -95})
	if a.LatencyS != b.LatencyS {
		t.Error("local execution must ignore the radios")
	}
}

func TestInterferenceHurtsLocalOnly(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("MobileNet v3")
	cpuT := Target{Location: Local, Kind: soc.CPU, Step: 22, Prec: dnn.FP32}
	base, _ := w.Expected(m, cpuT, strongCond())
	loaded := strongCond()
	loaded.Load = interfere.CPUHog().Next()
	hit, _ := w.Expected(m, cpuT, loaded)
	if hit.LatencyS <= base.LatencyS {
		t.Error("interference must slow local CPU execution")
	}
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	a, _ := w.Expected(m, cloud, strongCond())
	b, _ := w.Expected(m, cloud, loaded)
	if a.LatencyS != b.LatencyS {
		t.Error("cloud execution must ignore local interference")
	}
}

func TestBestTargetRespectsConstraints(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("Inception v1")
	c := strongCond()
	tgt, meas, err := w.BestTarget(m, c, QoSNonStreamingS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meas.LatencyS > QoSNonStreamingS {
		t.Errorf("best target %v violates QoS", tgt)
	}
	// No cheaper feasible satisfying target exists.
	for _, u := range w.Targets(m) {
		um, err := w.Expected(m, u, c)
		if err != nil {
			t.Fatal(err)
		}
		if um.LatencyS <= QoSNonStreamingS && um.EnergyJ < meas.EnergyJ-1e-12 {
			t.Errorf("target %v (%.4g J) beats Opt %v (%.4g J)", u, um.EnergyJ, tgt, meas.EnergyJ)
		}
	}
	// With an accuracy target the chosen precision must comply.
	_, meas65, err := w.BestTarget(m, c, QoSNonStreamingS, 65)
	if err != nil {
		t.Fatal(err)
	}
	if meas65.Accuracy < 65 {
		t.Errorf("accuracy-constrained best target has accuracy %v", meas65.Accuracy)
	}
	if meas65.EnergyJ < meas.EnergyJ {
		t.Error("a tighter constraint cannot reduce energy")
	}
}

func TestBestTargetFallbacks(t *testing.T) {
	w := NewWorld(soc.MotoXForce(), 1)
	m := dnn.MustByName("MobileBERT")
	// With an impossible QoS nothing satisfies: fall back to min latency
	// among accuracy-satisfying targets.
	tgt, meas, err := w.BestTarget(m, strongCond(), 1e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range w.Targets(m) {
		um, _ := w.Expected(m, u, strongCond())
		if um.LatencyS < meas.LatencyS-1e-12 {
			t.Errorf("fallback %v is not min-latency (%v beats it)", tgt, u)
		}
	}
	// With an impossible accuracy target fall back to max accuracy.
	_, meas2, err := w.BestTarget(m, strongCond(), QoSTranslationS, 99.9)
	if err != nil {
		t.Fatal(err)
	}
	if meas2.Accuracy != m.Accuracy(dnn.FP32) {
		t.Errorf("accuracy fallback returned %v", meas2.Accuracy)
	}
}

func TestExecuteInfeasibleTarget(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	bert := dnn.MustByName("MobileBERT")
	if _, err := w.ExecuteCtx(nil, bert, Target{Location: Local, Kind: soc.GPU, Prec: dnn.FP32}, strongCond()); err == nil {
		t.Error("executing an infeasible target must fail")
	}
}

func TestPPW(t *testing.T) {
	m := Measurement{EnergyJ: 0.05}
	if math.Abs(m.PPW()-20) > 1e-9 {
		t.Errorf("PPW = %v, want 20", m.PPW())
	}
	if (Measurement{}).PPW() != 0 {
		t.Error("zero-energy PPW must be 0")
	}
}

func TestTargetString(t *testing.T) {
	local := Target{Location: Local, Kind: soc.CPU, Step: 17, Prec: dnn.INT8}
	if local.String() != "local/CPU@17/INT8" {
		t.Errorf("local target string = %q", local.String())
	}
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	if cloud.String() != "cloud/GPU/FP32" {
		t.Errorf("cloud target string = %q", cloud.String())
	}
}

// The plan table is derived from the world's three systems; replacing one
// after the world has been used must not leave it answering from plans and
// target lists built for the old hardware.
func TestPlanTableFollowsReplacedSystem(t *testing.T) {
	m := dnn.MustByName("ResNet 50")
	c := strongCond()
	w := NewWorld(soc.Mi8Pro(), 1)
	if _, _, err := w.BestTarget(m, c, QoSNonStreamingS, 0); err != nil {
		t.Fatal(err)
	}
	w.Server = soc.CloudServerTPU()
	fresh := NewWorld(soc.Mi8Pro(), 1)
	fresh.Server = w.Server

	tpu := Target{Location: Cloud, Kind: soc.TPU, Prec: dnn.FP32}
	got, err := w.Expected(m, tpu, c)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := fresh.Expected(m, tpu, c); got != want {
		t.Errorf("TPU after replacing the server: %+v, fresh world %+v", got, want)
	}
	gotT, gotM, err := w.BestTarget(m, c, QoSNonStreamingS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantT, wantM, _ := fresh.BestTarget(m, c, QoSNonStreamingS, 0); gotT != wantT || gotM != wantM {
		t.Errorf("BestTarget after replacing the server: %v, fresh world %v", gotT, wantT)
	}
}

// The slicing and partitioning modes price per-call throwaway models (one
// per layer in the MOSAIC comparator); they walk layers with
// perf.LayerLatency and must never insert into the plan table, which keeps
// every model it has met for the world's lifetime.
func TestLayerModesBypassPlanTable(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("MobileNet v1")
	cpu := Target{Location: Local, Kind: soc.CPU, Step: 5, Prec: dnn.FP32}
	for _, l := range m.Layers {
		one := &dnn.Model{Name: "layer", Layers: []dnn.Layer{l}, InputBytes: 1, OutputBytes: 1}
		if _, err := w.ExpectedSliced(one, []Slice{{From: 0, To: 1, Target: cpu}}, strongCond()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Partitioned(m, len(m.Layers)/2, cpu, Cloud, strongCond()); err != nil {
		t.Fatal(err)
	}
	if tab := w.plans.Load(); tab != nil {
		t.Errorf("layer-granularity modes inserted %d models into the plan table", len(tab.models))
	}
}
