package sched

import (
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func strongCond() sim.Conditions {
	return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
}

func TestEdgeCPU(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := EdgeCPU{World: w}
	if p.Name() != "Edge (CPU FP32)" {
		t.Error("name wrong")
	}
	meas, err := p.RunCtx(nil, dnn.MustByName("MobileNet v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != sim.Local || meas.Target.Kind != soc.CPU || meas.Target.Prec != dnn.FP32 {
		t.Errorf("EdgeCPU ran on %v", meas.Target)
	}
	cpu := w.Device.Processor(soc.CPU)
	if meas.Target.Step != cpu.Steps-1 {
		t.Error("EdgeCPU must run at top frequency")
	}
}

func TestEdgeBestStaysLocalAndMeetsQoS(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &EdgeBest{World: w}
	for _, name := range []string{"Inception v1", "MobileNet v3", "MobileNet v1"} {
		m := dnn.MustByName(name)
		meas, err := p.RunCtx(nil, m, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if meas.Target.Location != sim.Local {
			t.Errorf("%s: EdgeBest went %v", name, meas.Target.Location)
		}
		exp, err := w.Expected(m, meas.Target, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if exp.LatencyS > sim.QoSNonStreamingS {
			t.Errorf("%s: EdgeBest plan violates QoS in calm conditions", name)
		}
	}
}

func TestEdgeBestPlanIsBestLocal(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &EdgeBest{World: w}
	m := dnn.MustByName("Inception v1")
	meas, err := p.RunCtx(nil, m, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.Expected(m, meas.Target, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range w.Targets(m) {
		if tgt.Location != sim.Local {
			continue
		}
		e, err := w.Expected(m, tgt, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if e.LatencyS <= sim.QoSNonStreamingS && e.EnergyJ < plan.EnergyJ-1e-12 {
			t.Errorf("local target %v beats EdgeBest plan", tgt)
		}
	}
}

func TestEdgeBestAccuracyConstraint(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &EdgeBest{World: w, Accuracy: 65}
	meas, err := p.RunCtx(nil, dnn.MustByName("Inception v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Accuracy < 65 {
		t.Errorf("EdgeBest chose accuracy %v under a 65%% target", meas.Accuracy)
	}
}

// TestEdgeBestUnreachableAccuracy: when no local target meets the accuracy
// target, Edge (Best) relaxes as the oracle does and runs the most accurate
// local target (the first offered, on ties) instead of failing.
func TestEdgeBestUnreachableAccuracy(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("Inception v1")
	var want sim.Target
	wantAcc := -1.0
	for _, tgt := range w.Targets(m) {
		if tgt.Location != sim.Local {
			continue
		}
		e, err := w.Expected(m, tgt, noVariance())
		if err != nil {
			t.Fatal(err)
		}
		if e.Accuracy >= 99 {
			t.Fatalf("%v reaches %v%%: the test needs an unreachable target", tgt, e.Accuracy)
		}
		if e.Accuracy > wantAcc {
			want, wantAcc = tgt, e.Accuracy
		}
	}
	meas, err := (&EdgeBest{World: w, Accuracy: 99}).RunCtx(nil, m, strongCond())
	if err != nil {
		t.Fatalf("unreachable accuracy: %v", err)
	}
	if meas.Target != want || meas.Accuracy != wantAcc {
		t.Errorf("ran %v at %v%%, want the most accurate local target %v at %v%%",
			meas.Target, meas.Accuracy, want, wantAcc)
	}
}

func TestCloudAll(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := CloudAll{World: w}
	meas, err := p.RunCtx(nil, dnn.MustByName("ResNet 50"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != sim.Cloud || meas.Target.Kind != soc.GPU {
		t.Errorf("CloudAll ran on %v", meas.Target)
	}
	// MobileBERT also lands on the server GPU (it supports RC).
	meas, err = p.RunCtx(nil, dnn.MustByName("MobileBERT"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != sim.Cloud {
		t.Error("CloudAll must stay in the cloud")
	}
}

func TestConnectedEdge(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &ConnectedEdge{World: w}
	meas, err := p.RunCtx(nil, dnn.MustByName("Inception v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != sim.Connected {
		t.Errorf("ConnectedEdge ran on %v", meas.Target)
	}
	// BERT has only the tablet CPU available.
	meas, err = p.RunCtx(nil, dnn.MustByName("MobileBERT"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != sim.Connected || meas.Target.Kind != soc.CPU {
		t.Errorf("ConnectedEdge BERT target = %v", meas.Target)
	}
}

func TestOptBeatsBaselines(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	baselines := []Policy{
		EdgeCPU{World: w},
		&EdgeBest{World: w},
		CloudAll{World: w},
		&ConnectedEdge{World: w},
	}
	for _, m := range dnn.Zoo() {
		c := strongCond()
		qos := sim.QoSFor(m.Task == dnn.Translation, sim.NonStreaming)
		_, optMeas, err := w.BestTarget(m, c, qos, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range baselines {
			meas, err := b.RunCtx(nil, m, c)
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name(), m.Name, err)
			}
			exp, err := w.Expected(m, meas.Target, c)
			if err != nil {
				t.Fatal(err)
			}
			// If the baseline satisfies QoS, Opt must not be more
			// expensive (it may instead pick a pricier satisfying
			// target only if the baseline violates QoS).
			if exp.LatencyS <= qos && optMeas.EnergyJ > exp.EnergyJ*1.0001 {
				t.Errorf("%s: %s (%v) beats Opt", m.Name, b.Name(), meas.Target)
			}
		}
	}
}

func TestNeuroSurgeonBERTFullOffload(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &NeuroSurgeon{World: w}
	meas, err := p.RunCtx(nil, dnn.MustByName("MobileBERT"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	// Local BERT is hopeless: the chosen plan lands in the cloud.
	if meas.Target.Location != sim.Cloud {
		t.Errorf("NeuroSurgeon BERT target = %v", meas.Target)
	}
}

func TestNeuroSurgeonLightStaysLocal(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &NeuroSurgeon{World: w}
	meas, err := p.RunCtx(nil, dnn.MustByName("MobileNet v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	// For a light NN the transmission overhead dominates; partitioning
	// keeps most or all of the work local.
	if meas.Breakdown.Compute == 0 && meas.TTXSeconds > 0 {
		t.Logf("NeuroSurgeon chose full offload for MobileNet v1 (target %v)", meas.Target)
	}
	if meas.LatencyS <= 0 {
		t.Fatal("bad measurement")
	}
}

func TestNeuroSurgeonIgnoresVariance(t *testing.T) {
	// The plan is fixed offline: weak signal at runtime hurts it.
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &NeuroSurgeon{World: w}
	m := dnn.MustByName("ResNet 50")
	strong, err := p.RunCtx(nil, m, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	weak, err := p.RunCtx(nil, m, sim.Conditions{RSSIWLAN: -90, RSSIP2P: -55})
	if err != nil {
		t.Fatal(err)
	}
	if strong.Target.Location == sim.Cloud && weak.LatencyS <= strong.LatencyS {
		t.Error("weak signal must hurt the fixed cloud plan")
	}
}

func TestMOSAICCoversAllLayersLocally(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &MOSAIC{World: w}
	for _, name := range []string{"Inception v1", "MobileNet v3", "MobileBERT"} {
		m := dnn.MustByName(name)
		meas, err := p.RunCtx(nil, m, strongCond())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meas.Target.Location != sim.Local {
			t.Errorf("%s: MOSAIC must stay on-device, got %v", name, meas.Target)
		}
		if meas.Breakdown.Radio != 0 {
			t.Errorf("%s: MOSAIC must not use the radio", name)
		}
	}
}

func TestMOSAICRespectsAccuracy(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &MOSAIC{World: w, Accuracy: 65}
	meas, err := p.RunCtx(nil, dnn.MustByName("Inception v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Accuracy < 65 {
		t.Errorf("MOSAIC delivered accuracy %v under a 65%% target", meas.Accuracy)
	}
}

func TestMOSAICPlanIsCached(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &MOSAIC{World: w}
	m := dnn.MustByName("Inception v1")
	a, err := p.RunCtx(nil, m, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunCtx(nil, m, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	// Identical conditions, identical cached plan -> identical outcome.
	if a.Target != b.Target {
		t.Error("MOSAIC plan must be cached per model")
	}
}

func TestPolicyNames(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	names := map[string]Policy{
		"Edge (CPU FP32)": EdgeCPU{World: w},
		"Edge (Best)":     &EdgeBest{World: w},
		"Cloud":           CloudAll{World: w},
		"Connected Edge":  &ConnectedEdge{World: w},
		"Opt":             Opt{World: w},
		"MOSAIC":          &MOSAIC{World: w},
		"NeuroSurgeon":    &NeuroSurgeon{World: w},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("name = %q, want %q", p.Name(), want)
		}
	}
}

func TestEdgeBestFallbackWhenNothingMeetsQoS(t *testing.T) {
	// On the Moto, no local target holds ResNet 50 under 50 ms: EdgeBest
	// must fall back to the fastest local option rather than fail.
	w := sim.NewWorld(soc.MotoXForce(), 1)
	p := &EdgeBest{World: w}
	meas, err := p.RunCtx(nil, dnn.MustByName("ResNet 50"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != sim.Local {
		t.Error("fallback must stay local")
	}
	// Verify it picked the minimum-latency local target.
	plan, err := w.Expected(dnn.MustByName("ResNet 50"), meas.Target, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range w.Targets(dnn.MustByName("ResNet 50")) {
		if tgt.Location != sim.Local {
			continue
		}
		e, err := w.Expected(dnn.MustByName("ResNet 50"), tgt, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if e.LatencyS < plan.LatencyS-1e-12 {
			t.Errorf("faster local target %v exists", tgt)
		}
	}
}

func TestConnectedEdgeAccuracyConstraint(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &ConnectedEdge{World: w, Accuracy: 65}
	meas, err := p.RunCtx(nil, dnn.MustByName("Inception v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Accuracy < 65 {
		t.Errorf("accuracy %v under a 65%% target", meas.Accuracy)
	}
	if meas.Target.Kind == soc.DSP {
		t.Error("the INT8 DSP cannot satisfy 65% for Inception v1")
	}
}

func TestNeuroSurgeonStreamingQoS(t *testing.T) {
	// Streaming tightens the budget; the planner must still produce a plan.
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &NeuroSurgeon{World: w, Intensity: sim.Streaming}
	meas, err := p.RunCtx(nil, dnn.MustByName("SSD MobileNet v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.LatencyS <= 0 {
		t.Fatal("no measurement")
	}
}

func TestMOSAICUsesMultipleEngines(t *testing.T) {
	// Inception v1's CONV body belongs on a co-processor; with the DSP
	// excluded by accuracy, the DP still has CPU and GPU to slice across.
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	p := &MOSAIC{World: w, Accuracy: 65}
	meas, err := p.RunCtx(nil, dnn.MustByName("Inception v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Accuracy < 65 {
		t.Error("accuracy constraint violated")
	}
}

func TestOptWithExplicitQoS(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	_, exp, err := w.BestTarget(dnn.MustByName("MobileNet v1"), strongCond(), 0.010, 0) // very tight: 10 ms
	if err != nil {
		t.Fatal(err)
	}
	if exp.LatencyS > 0.010 {
		t.Errorf("10 ms oracle picked a %v-s target", exp.LatencyS)
	}
}
