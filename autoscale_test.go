package autoscale

import (
	"bytes"
	"context"
	"testing"

	"autoscale/internal/fault"
)

func TestNewWorldDevices(t *testing.T) {
	for _, name := range DeviceNames() {
		w, err := NewWorld(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Device.Name != name {
			t.Errorf("world device = %s, want %s", w.Device.Name, name)
		}
	}
	if _, err := NewWorld("iPhone", 1); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestModelsAndLookup(t *testing.T) {
	if len(Models()) != 10 {
		t.Errorf("Models() = %d, want the Table III zoo", len(Models()))
	}
	m, err := Model("MobileBERT")
	if err != nil || m.Task != Translation {
		t.Fatalf("Model lookup: %v, %v", m, err)
	}
	if _, err := Model("GPT-3"); err == nil {
		t.Error("unknown model should fail")
	}
}

// A custom model is outside input: a layer type outside Conv…Dropout must be
// refused at the constructor, before any per-type latency table can be
// indexed with it, and every defined type must be accepted and schedulable.
func TestNewModelChecksLayerTypes(t *testing.T) {
	acc := map[Precision]float64{FP32: 70}
	for _, bad := range []LayerType{42, Dropout + 1, -1} {
		layers := []Layer{{Name: "c0", Type: Conv, MACs: 1e8}, {Name: "x", Type: bad, MACs: 1e6}}
		if m, err := NewModel("odd", ImageClassification, layers, 1000, 10, acc); err == nil {
			t.Errorf("NewModel accepted layer type %d: %v", int(bad), m)
		}
	}
	var layers []Layer
	for ty := Conv; ty <= Dropout; ty++ {
		if ty != RC {
			layers = append(layers, Layer{Name: ty.String(), Type: ty, MACs: 1e7, ActivationBytes: 1e5})
		}
	}
	m, err := NewModel("every-type", ImageClassification, layers, 1000, 10, acc)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Mi8Pro, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	c.Load.CPUUtil, c.Load.MemUtil = 0.6, 0.5
	if _, meas, err := w.BestTarget(m, c, 0.05, 0); err != nil || meas.LatencyS <= 0 {
		t.Fatalf("BestTarget on a model of every layer type: %+v, %v", meas, err)
	}
}

func TestEngineLifecycle(t *testing.T) {
	w, err := NewWorld(Mi8Pro, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvironment(EnvS1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := Model("MobileNet v1")
	for i := 0; i < 30; i++ {
		d, err := e.RunInferenceCtx(nil, m, env.Sample())
		if err != nil {
			t.Fatal(err)
		}
		if d.Measurement.EnergyJ <= 0 {
			t.Fatal("bad decision")
		}
	}
}

func TestTrainAndPolicies(t *testing.T) {
	w, _ := NewWorld(GalaxyS10e, 2)
	cfg := DefaultEngineConfig()
	e, err := NewEngine(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := Models()[:2]
	if err := Train(e, models, 2, 3); err != nil {
		t.Fatal(err)
	}
	pol := AsPolicy(e)
	env, _ := NewEnvironment(EnvD1, 2)
	if _, err := pol.RunCtx(nil, models[0], env.Sample()); err != nil {
		t.Fatal(err)
	}
	if got := len(Baselines(w, NonStreaming)); got != 5 {
		t.Errorf("Baselines = %d", got)
	}
	if got := len(PriorWork(w, NonStreaming)); got != 2 {
		t.Errorf("PriorWork = %d", got)
	}
	if Opt(w, NonStreaming).Name() != "Opt" {
		t.Error("Opt policy name wrong")
	}
}

func TestQoSForAPI(t *testing.T) {
	bert, _ := Model("MobileBERT")
	if QoSFor(bert, NonStreaming) != 0.100 {
		t.Error("translation QoS wrong")
	}
	mb, _ := Model("MobileNet v1")
	if QoSFor(mb, NonStreaming) != 0.050 {
		t.Error("vision QoS wrong")
	}
	if QoSFor(mb, Streaming) >= 0.050 {
		t.Error("streaming QoS must be tighter")
	}
}

func TestExperimentRegistryAPI(t *testing.T) {
	ids := Experiments()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	tab, err := RunExperiment("tableIII", QuickOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Error("tableIII rows wrong")
	}
	if _, err := RunExperiment("nope", QuickOptions(1)); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestNewTrainedEngineAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop skipped in -short mode")
	}
	w, _ := NewWorld(MotoXForce, 5)
	e, err := NewTrainedEngine(w, DefaultEngineConfig(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Agent().NumStates() == 0 {
		t.Error("trained engine has no states")
	}
}

func TestTracedPolicyAPI(t *testing.T) {
	w, _ := NewWorld(Mi8Pro, 7)
	e, err := NewEngine(w, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	p := TracedPolicy(e, tw)
	m, _ := Model("Inception v1")
	env, _ := NewEnvironment(EnvS1, 7)
	for i := 0; i < 10; i++ {
		if _, err := p.RunCtx(nil, m, env.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("trace records = %d", len(recs))
	}
	sum := SummarizeTrace(recs)
	if sum.Records != 10 || sum.TotalEnergyJ <= 0 {
		t.Errorf("summary incomplete: %+v", sum)
	}
}

func TestFleetProvision(t *testing.T) {
	cfg := DefaultEngineConfig()
	fleet, err := NewFleet(Mi8Pro, cfg, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Donor() == nil {
		t.Fatal("fleet has no donor")
	}
	for _, dev := range []string{GalaxyS10e, MotoXForce} {
		e, err := fleet.Provision(dev, cfg, 9)
		if err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
		if e.Agent().NumStates() == 0 {
			t.Errorf("%s: transferred engine has no states", dev)
		}
		m, _ := Model("MobileNet v1")
		env, _ := NewEnvironment(EnvS1, 9)
		if _, err := e.RunInferenceCtx(nil, m, env.Sample()); err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
	}
	if _, err := fleet.Provision("iPhone", cfg, 1); err == nil {
		t.Error("unknown device should fail")
	}
	// The zero Fleet has no donor: it provisions cold engines.
	var cold Fleet
	if e, err := cold.Provision(GalaxyS10e, cfg, 9); err != nil || e.Agent().NumStates() != 0 || cold.Donor() != nil {
		t.Errorf("zero Fleet: err %v, want a cold engine and no donor", err)
	}
	if _, err := FleetFromEngine(nil); err == nil {
		t.Error("nil donor should fail")
	}
	wrapped, err := FleetFromEngine(fleet.Donor())
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Donor() != fleet.Donor() {
		t.Error("wrapped donor mismatch")
	}
}

func TestProvisionGatewayAPI(t *testing.T) {
	cfg := DefaultEngineConfig()
	fleet, err := NewFleet(Mi8Pro, cfg, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.ProvisionGateway([]string{GalaxyS10e, MotoXForce}, cfg,
		GatewayConfig{QueueDepth: 16}, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := Model("MobileNet v1")
	env, _ := NewEnvironment(EnvS1, 9)
	for i := 0; i < 20; i++ {
		r, err := gw.Do(Request{Model: m, Conditions: env.Sample()})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusServed || r.Decision.Measurement.EnergyJ <= 0 {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
	snap := gw.Snapshot()
	if snap.Served != 20 || snap.Accounted() != snap.Submitted {
		t.Fatalf("snapshot: %+v", snap)
	}
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Submit(Request{Model: m}); err != ErrGatewayClosed {
		t.Fatalf("submit after shutdown: %v", err)
	}
	if _, err := fleet.ProvisionGateway(nil, cfg, GatewayConfig{}, 1); err == nil {
		t.Error("empty device list should fail")
	}
	if _, err := fleet.ProvisionGateway([]string{"iPhone"}, cfg, GatewayConfig{}, 1); err == nil {
		t.Error("unknown device should fail")
	}
}

// TestProvisionRouterSharesRecorder: the shards of a provisioned router note
// their breaker transitions in the router's flight recorder, as
// RouterConfig.Recorder promises, so `autoscale-serve -shards 2 -resilient
// -flight-recorder DIR` captures them.
func TestProvisionRouterSharesRecorder(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.RL.Epsilon = 0.5 // keep offloads, and so breaker trips, flowing
	storm := CompileFaultSchedule(&FaultSchedule{Name: "down", Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0, EndS: 1e9},
		{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 0, EndS: 1e9},
	}}, 1)
	gcfg := GatewayConfig{Faults: storm, Resilience: ResilienceConfig{Enabled: true, FailureThreshold: 1}}
	rec := NewFlightRecorder(NewTracer(TracerConfig{}), "", 0, 0)
	fleet := &Fleet{}
	rt, err := fleet.ProvisionRouter([]string{Mi8Pro, GalaxyS10e}, 2, cfg, gcfg, RouterConfig{Recorder: rec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck
	m, _ := Model("MobileNet v3")
	for i := 0; i < 400; i++ {
		if _, err := rt.Do(Request{Model: m, Conditions: Conditions{RSSIWLAN: -55, RSSIP2P: -55}}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if rt.Snapshot().BreakerOpens == 0 {
		t.Fatal("the outage tripped no breaker; the test is vacuous")
	}
	for _, ev := range rec.Events() {
		if ev.Kind == "breaker" {
			return
		}
	}
	t.Fatalf("no breaker event among %d recorded events", len(rec.Events()))
}
