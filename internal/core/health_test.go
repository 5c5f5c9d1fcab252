package core

import (
	"math"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func TestHealthFreshEngine(t *testing.T) {
	e := newTestEngine(t)
	h := e.Health()
	if h.Algorithm != "Q-learning" || h.Frozen {
		t.Fatalf("fresh health = %+v", h)
	}
	if h.States != 0 || h.Coverage != 0 || h.TotalVisits != 0 || h.Selections != 0 {
		t.Fatalf("fresh engine claims experience: %+v", h)
	}
	if h.StateSpaceSize != NewStateSpace().Size() {
		t.Fatalf("state space size = %d", h.StateSpaceSize)
	}
	if h.RewardSamples != 0 || h.MeanReward != 0 || h.TDSamples != 0 || h.VirtualS != 0 {
		t.Fatalf("fresh engine claims history: %+v", h)
	}
	if h.Epsilon != DefaultConfig().RL.Epsilon {
		t.Fatalf("epsilon = %v", h.Epsilon)
	}
}

func TestHealthTracksLearning(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("MobileNet v1")
	const steps = 50
	var rewardSum float64
	for i := 0; i < steps; i++ {
		d, err := e.RunInferenceCtx(nil, m, strongCond())
		if err != nil {
			t.Fatal(err)
		}
		rewardSum += d.Reward
	}
	h := e.Health()
	if h.States < 1 || h.States > h.StateSpaceSize {
		t.Fatalf("states = %d of %d", h.States, h.StateSpaceSize)
	}
	wantCov := float64(h.States) / float64(h.StateSpaceSize)
	if math.Abs(h.Coverage-wantCov) > 1e-12 {
		t.Fatalf("coverage = %v, want %v", h.Coverage, wantCov)
	}
	if h.TotalVisits != steps || h.Selections != steps {
		t.Fatalf("visits/selections = %d/%d, want %d", h.TotalVisits, h.Selections, steps)
	}
	if h.MaxVisits < 1 || h.MaxVisits > steps {
		t.Fatalf("max visits = %d", h.MaxVisits)
	}
	if h.VisitEntropy < 0 || h.VisitEntropy > 1 {
		t.Fatalf("entropy = %v", h.VisitEntropy)
	}
	// steps-1 deferred updates have completed (the last is still staged).
	if h.TDSamples != steps-1 {
		t.Fatalf("TD samples = %d, want %d", h.TDSamples, steps-1)
	}
	if h.TDErrorEMA <= 0 {
		t.Fatalf("TD EMA = %v", h.TDErrorEMA)
	}
	if h.RewardSamples != steps {
		t.Fatalf("reward samples = %d", h.RewardSamples)
	}
	if math.Abs(h.MeanReward-rewardSum/steps) > 1e-9 {
		t.Fatalf("mean reward = %v, want %v", h.MeanReward, rewardSum/steps)
	}
	if h.VirtualS <= 0 {
		t.Fatalf("virtual clock did not advance: %v", h.VirtualS)
	}
	if h.ExplorationRatio < 0 || h.ExplorationRatio > 1 {
		t.Fatalf("exploration ratio = %v", h.ExplorationRatio)
	}
}

func TestHealthRewardWindowCapsAndResetClears(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("MobileNet v1")
	for i := 0; i < rewardWindow+20; i++ {
		if _, err := e.RunInferenceCtx(nil, m, strongCond()); err != nil {
			t.Fatal(err)
		}
	}
	h := e.Health()
	if h.RewardSamples != rewardWindow {
		t.Fatalf("reward window = %d, want %d", h.RewardSamples, rewardWindow)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	h = e.Health()
	if h.RewardSamples != 0 || h.States != 0 || h.TDSamples != 0 {
		t.Fatalf("Reset left health state: %+v", h)
	}
	if h.VirtualS <= 0 {
		t.Fatal("Reset must keep the virtual clock")
	}
}

// TestHealthIsPureObservation pins the determinism contract: interleaving
// Health() calls into a run must not change its decisions or its clock.
func TestHealthIsPureObservation(t *testing.T) {
	run := func(sample bool) []Decision {
		w := sim.NewWorld(soc.Mi8Pro(), 1)
		e, err := NewEngine(w, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m := dnn.MustByName("MobileNet v1")
		out := make([]Decision, 0, 30)
		for i := 0; i < 30; i++ {
			if sample {
				e.Health()
			}
			d, err := e.RunInferenceCtx(nil, m, strongCond())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	plain, sampled := run(false), run(true)
	for i := range plain {
		if plain[i] != sampled[i] {
			t.Fatalf("step %d diverged under observation:\n %+v\nvs %+v", i, plain[i], sampled[i])
		}
	}
}

func TestHealthSarsaAlgorithmName(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgorithmSARSA
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := e.Health(); h.Algorithm != "SARSA" {
		t.Fatalf("algorithm = %q", h.Algorithm)
	}
}
