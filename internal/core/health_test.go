package core

import (
	"math"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/obs"
	"autoscale/internal/rl"
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

// gridScanHealth is Health as it was computed before visits were summed
// over the agent's visited rows: a walk over every index of the Table I
// grid. It is the reference TestHealthMatchesGridScan compares with.
func gridScanHealth(e *Engine) Health {
	agent := e.agent.Load()
	e.mu.Lock()
	rewards := make([]float64, 0, e.rewardN)
	for i := 0; i < e.rewardN; i++ {
		rewards = append(rewards, e.rewards[i])
	}
	e.mu.Unlock()
	h := Health{
		Algorithm:      e.cfg.Algorithm.String(),
		Frozen:         agent.Frozen(),
		Epsilon:        agent.Epsilon(),
		States:         agent.NumStates(),
		StateSpaceSize: e.States.Size(),
		RewardSamples:  len(rewards),
		VirtualS:       e.Now(),
	}
	if h.StateSpaceSize > 0 {
		h.Coverage = float64(h.States) / float64(h.StateSpaceSize)
	}
	counts := make([]int, 0, h.States)
	for i := 0; i < h.StateSpaceSize; i++ {
		if n := agent.VisitsIdx(int32(i)); n > 0 {
			h.TotalVisits += n
			counts = append(counts, n)
		}
	}
	h.MaxVisits = obs.MaxCount(counts)
	h.VisitEntropy = obs.Entropy(counts)
	explores, selections := agent.ExplorationStats()
	h.Selections = selections
	if selections > 0 {
		h.ExplorationRatio = float64(explores) / float64(selections)
	}
	h.TDErrorEMA, h.TDSamples = agent.TDErrorEMA()
	for _, r := range rewards {
		h.MeanReward += r
	}
	if len(rewards) > 0 {
		h.MeanReward /= float64(len(rewards))
	}
	return h
}

// TestHealthMatchesGridScan checks that walking the visited rows reads
// exactly what the grid scan read, every field compared with ==: on a
// trained engine, on a fork of it, after restoring its table, and after
// restoring a table that gives visits to a state without a Q row.
func TestHealthMatchesGridScan(t *testing.T) {
	e := newTestEngine(t)
	for i, m := range dnn.Zoo() {
		for j := 0; j < 40; j++ {
			c := sim.Conditions{Load: interfere.Load{CPUUtil: float64(j%4) / 4, MemUtil: float64(i%3) / 3},
				RSSIWLAN: -55 - float64((i*7+j)%40), RSSIP2P: -60 - float64(j%3)*15}
			if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(name string, e *Engine) {
		t.Helper()
		got, want := e.Health(), gridScanHealth(e)
		if got != want {
			t.Fatalf("%s: Health\n %+v\nwant the grid scan's\n %+v", name, got, want)
		}
		if got.TotalVisits != e.Agent().TotalVisits() {
			t.Fatalf("%s: Health counts %d visits, the agent %d", name, got.TotalVisits, e.Agent().TotalVisits())
		}
	}
	check("trained", e)
	if h := e.Health(); h.States < 10 || h.TotalVisits != 40*len(dnn.Zoo()) {
		t.Fatalf("vacuous: %d states, %d visits", h.States, h.TotalVisits)
	}

	f, err := e.Fork(sim.NewWorld(soc.Mi8Pro(), 1))
	if err != nil {
		t.Fatal(err)
	}
	check("fork", f)
	if _, err := f.RunInferenceCtx(nil, dnn.MustByName("MobileBERT"), strongCond()); err != nil {
		t.Fatal(err)
	}
	check("fork after a step", f)

	snap, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	r := newTestEngine(t)
	if err := r.RestoreQTable(snap); err != nil {
		t.Fatal(err)
	}
	check("restored", r)

	// A hand-written table may give visits to a state it has no row for.
	tbl, err := rl.DecodeTable(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); ; i++ {
		if key := r.States.KeyOf(i); tbl.Q[key] == nil {
			tbl.Visits[key] = 7
			break
		}
	}
	stray, err := tbl.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreQTable(stray); err != nil {
		t.Fatal(err)
	}
	check("restored with a row-less visit", r)
	rf, err := r.Fork(sim.NewWorld(soc.Mi8Pro(), 1))
	if err != nil {
		t.Fatal(err)
	}
	check("fork of that", rf)
}
