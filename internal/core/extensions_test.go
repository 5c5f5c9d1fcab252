package core

import (
	"sync"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func TestPartitionActionSpace(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	plain := NewActionSpace(w)
	part := NewActionSpaceWithPartitions(w)
	// 3 cut fractions x 2 remote locations = 6 extra actions.
	if part.Len() != plain.Len()+6 {
		t.Fatalf("partition space = %d, want %d", part.Len(), plain.Len()+6)
	}
	for i := 0; i < plain.Len(); i++ {
		if part.IsPartition(i) {
			t.Fatalf("standard action %d flagged as partition", i)
		}
	}
	for i := plain.Len(); i < part.Len(); i++ {
		if !part.IsPartition(i) {
			t.Fatalf("action %d should be a partition", i)
		}
		d := part.Describe(i)
		if len(d) == 0 || d[:9] != "partition" {
			t.Errorf("Describe(%d) = %q", i, d)
		}
	}
	// Standard actions describe as their targets.
	if part.Describe(0) != part.Target(0).String() {
		t.Error("standard describe mismatch")
	}
}

func TestPartitionActionExecution(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	as := NewActionSpaceWithPartitions(w)
	m := dnn.MustByName("ResNet 50")
	c := strongCond()
	for i := as.Len() - 6; i < as.Len(); i++ {
		meas, err := as.ExecuteCtx(nil, m, i, c)
		if err != nil {
			t.Fatalf("%s: %v", as.Describe(i), err)
		}
		if meas.LatencyS <= 0 || meas.EnergyJ <= 0 {
			t.Fatalf("%s produced a bad measurement", as.Describe(i))
		}
		// A genuine split spends both local compute and radio energy.
		if meas.Breakdown.Compute <= 0 {
			t.Errorf("%s: no local compute", as.Describe(i))
		}
		if meas.Breakdown.Radio <= 0 {
			t.Errorf("%s: no radio energy", as.Describe(i))
		}
	}
	if _, err := as.ExecuteCtx(nil, m, -1, c); err == nil {
		t.Error("out-of-range action should fail")
	}
	if _, err := as.ExecuteCtx(nil, m, as.Len(), c); err == nil {
		t.Error("out-of-range action should fail")
	}
}

func TestPartitionMaskForRCModels(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	as := NewActionSpaceWithPartitions(w)
	bert := dnn.MustByName("MobileBERT")
	mask := as.Mask(bert)
	// BERT's prefix runs on the CPU (which supports RC): partitions stay
	// feasible.
	for i := as.Len() - 6; i < as.Len(); i++ {
		if !mask[i] {
			t.Errorf("partition %s should be feasible for MobileBERT", as.Describe(i))
		}
	}
	// And partitioned BERT executes.
	if _, err := as.ExecuteCtx(nil, bert, as.Len()-1, strongCond()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWithPartitionActions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PartitionActions = true
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Actions.Len() != 72 {
		t.Fatalf("engine action space = %d, want 72", e.Actions.Len())
	}
	m := dnn.MustByName("Inception v3")
	for i := 0; i < 100; i++ {
		if _, err := e.RunInferenceCtx(nil, m, strongCond()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSARSAEngine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgorithmSARSA
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v1")
	c := strongCond()
	for i := 0; i < 200; i++ {
		if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
			t.Fatal(err)
		}
	}
	// The on-policy learner still converges to a sane choice: a feasible
	// target that does not grossly violate QoS.
	tgt, err := e.Predict(m, c)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := e.World.Expected(m, tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if meas.LatencyS > 3*sim.QoSNonStreamingS {
		t.Errorf("SARSA converged to a terrible target %v (%.1f ms)", tgt, meas.LatencyS*1e3)
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgorithmQLearning.String() != "Q-learning" || AlgorithmSARSA.String() != "SARSA" {
		t.Error("algorithm names wrong")
	}
}

func TestEngineConcurrentServices(t *testing.T) {
	// Multiple services (goroutines) share one engine, as on a real phone.
	e := newTestEngine(t)
	models := []*dnn.Model{
		dnn.MustByName("MobileNet v1"),
		dnn.MustByName("Inception v1"),
		dnn.MustByName("MobileBERT"),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(models))
	for _, m := range models {
		wg.Add(1)
		go func(m *dnn.Model) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := e.RunInferenceCtx(nil, m, strongCond()); err != nil {
					errs <- err
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e.Agent().NumStates() == 0 {
		t.Error("no states learned")
	}
}
