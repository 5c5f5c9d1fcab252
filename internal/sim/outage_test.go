package sim

import (
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/soc"
)

func TestOutageDisabledByDefault(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 1)
	if w.OutageProb != 0 {
		t.Error("outages must be off by default")
	}
	m := dnn.MustByName("ResNet 50")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	for i := 0; i < 50; i++ {
		meas, err := w.ExecuteCtx(nil, m, cloud, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if meas.Target.Location != Cloud {
			t.Fatal("no outage expected")
		}
	}
}

func TestOutageFallsBackToLocalCPU(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 2)
	w.OutageProb = 1 // every offload fails
	m := dnn.MustByName("Inception v1")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	meas, err := w.ExecuteCtx(nil, m, cloud, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != Local || meas.Target.Kind != soc.CPU {
		t.Fatalf("fallback target = %v, want local CPU", meas.Target)
	}
	// The failed attempt charges the timeout and the radio.
	local, err := w.Expected(m, meas.Target, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.LatencyS < local.LatencyS+w.OutageTimeoutS {
		t.Errorf("outage latency %v missing the timeout", meas.LatencyS)
	}
	if meas.Breakdown.Radio <= 0 {
		t.Error("the wasted transmission must cost radio energy")
	}
	if meas.EnergyJ <= local.EnergyJ {
		t.Error("outage must cost more than clean local execution")
	}
}

func TestOutageDoesNotAffectLocal(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 3)
	w.OutageProb = 1
	m := dnn.MustByName("MobileNet v1")
	local := Target{Location: Local, Kind: soc.DSP, Prec: dnn.INT8}
	meas, err := w.ExecuteCtx(nil, m, local, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target != local {
		t.Error("local execution must never trip the outage path")
	}
}

func TestOutageProbability(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 4)
	w.OutageProb = 0.3
	m := dnn.MustByName("ResNet 50")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	outages := 0
	const n = 1000
	for i := 0; i < n; i++ {
		meas, err := w.ExecuteCtx(nil, m, cloud, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		if meas.Target.Location == Local {
			outages++
		}
	}
	rate := float64(outages) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("outage rate = %v, want ~0.3", rate)
	}
}

// faultWorld builds a world carrying the given compiled schedule.
func faultWorld(seed int64, s *fault.Schedule) *World {
	w := NewWorld(soc.Mi8Pro(), seed)
	w.Faults = fault.New(s, exec.NewRoot(seed).Child("faults"))
	return w
}

func TestScriptedOutageWindow(t *testing.T) {
	w := faultWorld(10, &fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0, EndS: 5},
	}})
	m := dnn.MustByName("Inception v1")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}

	root := exec.NewRoot(10)
	ctx := root.Child("req", 1)
	before := ctx.Now()
	meas, err := w.ExecuteCtx(ctx, m, cloud, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != Local {
		t.Fatalf("inside the window the offload must fall back, got %v", meas.Target)
	}
	if meas.WastedJ <= 0 {
		t.Error("scripted outage must attribute wasted energy")
	}
	if got := ctx.Now() - before; got != meas.LatencyS {
		t.Errorf("outage path advanced the clock by %v, want the full episode %v", got, meas.LatencyS)
	}

	// Past the window the same target serves cleanly.
	root.Child("skip").Advance(6 - root.Child("skip").Now())
	meas, err = w.ExecuteCtx(root.Child("req", 2), m, cloud, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != Cloud {
		t.Fatalf("after the window the offload must succeed, got %v", meas.Target)
	}
	if meas.WastedJ != 0 {
		t.Errorf("clean offload attributed WastedJ = %v", meas.WastedJ)
	}
}

func TestScriptedFaultStretchMeasurements(t *testing.T) {
	m := dnn.MustByName("Inception v1")
	cases := []struct {
		name   string
		spec   fault.Spec
		target Target
	}{
		{
			name:   "queue spike stretches remote",
			spec:   fault.Spec{Kind: fault.KindQueueSpike, Site: fault.SiteCloud, StartS: 0, EndS: 5, ExtraServiceS: 0.05},
			target: Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32},
		},
		{
			name:   "thermal throttle stretches local",
			spec:   fault.Spec{Kind: fault.KindThermal, StartS: 0, EndS: 5, Factor: 2},
			target: Target{Location: Local, Kind: soc.CPU, Step: 0, Prec: dnn.FP32},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := faultWorld(11, &fault.Schedule{Faults: []fault.Spec{tc.spec}})
			w.NoiseFrac = 0
			clean, err := w.Expected(m, tc.target, strongCond())
			if err != nil {
				t.Fatal(err)
			}
			meas, err := w.ExecuteCtx(exec.NewRoot(11).Child("req", 1), m, tc.target, strongCond())
			if err != nil {
				t.Fatal(err)
			}
			if meas.LatencyS <= clean.LatencyS {
				t.Errorf("faulted latency %v not above clean %v", meas.LatencyS, clean.LatencyS)
			}
			if meas.EnergyJ <= clean.EnergyJ {
				t.Errorf("faulted energy %v not above clean %v (stall idles the platform)", meas.EnergyJ, clean.EnergyJ)
			}
			// Past the window the stretch disappears.
			late := exec.NewRoot(11).Child("req", 2)
			late.Advance(6)
			meas, err = w.ExecuteCtx(late, m, tc.target, strongCond())
			if err != nil {
				t.Fatal(err)
			}
			if meas.LatencyS != clean.LatencyS {
				t.Errorf("after the window latency = %v, want clean %v", meas.LatencyS, clean.LatencyS)
			}
		})
	}
}

func TestRSSIRampDegradesOffload(t *testing.T) {
	w := faultWorld(12, &fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindRSSIRamp, Link: fault.LinkWLAN, StartS: 0, EndS: 10, DeltaDBm: -40},
	}})
	w.NoiseFrac = 0
	m := dnn.MustByName("Inception v1")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}

	early := exec.NewRoot(12).Child("req", 1)
	early.Advance(0.5)
	first, err := w.ExecuteCtx(early, m, cloud, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	late := exec.NewRoot(12).Child("req", 2)
	late.Advance(9.5)
	second, err := w.ExecuteCtx(late, m, cloud, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if second.LatencyS <= first.LatencyS {
		t.Errorf("deep into the ramp latency %v must exceed early-ramp %v", second.LatencyS, first.LatencyS)
	}
	// The agent's observation must see the same degradation execution does.
	obs := w.ObservedConditions(late, strongCond())
	if obs.RSSIWLAN >= strongCond().RSSIWLAN {
		t.Errorf("observed WLAN RSSI %v not degraded", obs.RSSIWLAN)
	}
}

func TestBestTargetAtAvoidsDownSites(t *testing.T) {
	w := faultWorld(13, &fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0, EndS: 5},
		{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 0, EndS: 5},
	}})
	m := dnn.MustByName("Inception v1")
	qos := 1.0 // generous: everything is feasible, so the oracle is free to offload

	tgt, _, err := w.BestTargetAt(2, m, strongCond(), qos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Location != Local {
		t.Fatalf("with both remotes down the oracle chose %v, want local", tgt.Location)
	}
	tgt, _, err = w.BestTargetAt(6, m, strongCond(), qos, 0)
	if err != nil {
		t.Fatal(err)
	}
	blind, _, err := w.BestTarget(m, strongCond(), qos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt != blind {
		t.Errorf("past the windows BestTargetAt = %v, want the unfiltered choice %v", tgt, blind)
	}
}

func TestExpectedIgnoresOutage(t *testing.T) {
	w := NewWorld(soc.Mi8Pro(), 5)
	w.OutageProb = 1
	m := dnn.MustByName("ResNet 50")
	cloud := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	meas, err := w.Expected(m, cloud, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Target.Location != Cloud {
		t.Error("Expected must stay outage-free (the oracle plans on averages)")
	}
}
