package core

import (
	"math"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/interfere"
	"autoscale/internal/rl"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func strongCond() sim.Conditions {
	return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	e, err := NewEngine(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestActionSpaceSize(t *testing.T) {
	// Mi8Pro: 23x2 CPU + 7x2 GPU + 1 DSP + 3 connected + 2 cloud = 66 —
	// the paper's "~66 actions augmented with quantization and DVFS".
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	as := NewActionSpace(w)
	if as.Len() != 66 {
		t.Errorf("Mi8Pro action space = %d, want 66", as.Len())
	}
	// Galaxy S10e: 21x2 + 9x2 + 3 + 2 = 65.
	s10e := NewActionSpace(sim.NewWorld(soc.GalaxyS10e(), 1))
	if s10e.Len() != 65 {
		t.Errorf("S10e action space = %d, want 65", s10e.Len())
	}
	// Moto X Force: 15x2 + 6x2 + 3 + 2 = 47.
	moto := NewActionSpace(sim.NewWorld(soc.MotoXForce(), 1))
	if moto.Len() != 47 {
		t.Errorf("Moto action space = %d, want 47", moto.Len())
	}
}

func TestActionSpaceIndexRoundTrip(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	as := NewActionSpace(w)
	for i := 0; i < as.Len(); i++ {
		if as.Index(as.Target(i)) != i {
			t.Fatalf("index round-trip broken at %d", i)
		}
	}
	if as.Index(sim.Target{Location: sim.Cloud, Kind: soc.DSP}) != -1 {
		t.Error("unknown target must index to -1")
	}
	if got := len(as.Targets()); got != as.Len() {
		t.Error("Targets() length mismatch")
	}
}

func TestActionMask(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	as := NewActionSpace(w)
	bert := dnn.MustByName("MobileBERT")
	mask := as.Mask(bert)
	enabled := 0
	for i, ok := range mask {
		tgt := as.Target(i)
		if ok {
			enabled++
			if tgt.Location == sim.Local && tgt.Kind != soc.CPU {
				t.Errorf("BERT mask enables %v", tgt)
			}
		}
	}
	// CPU 23x2 + connected CPU + cloud CPU + cloud GPU = 49.
	if enabled != 49 {
		t.Errorf("BERT enabled actions = %d, want 49", enabled)
	}
	resnet := dnn.MustByName("ResNet 50")
	all := 0
	for _, ok := range as.Mask(resnet) {
		if ok {
			all++
		}
	}
	if all != 66 {
		t.Errorf("ResNet enabled actions = %d, want 66", all)
	}
}

func TestRewardEquation5(t *testing.T) {
	rc := RewardConfig{QoSTargetS: 0.050, AccuracyTarget: 65, Alpha: 1, Beta: 0.1}
	// Accuracy miss: R = (accuracy - 100) x scale.
	if got := rc.Reward(0.05, 0.01, 60); got != -4000 {
		t.Errorf("accuracy-miss reward = %v, want -4000", got)
	}
	// The miss must be worse than any valid execution, however expensive.
	if rc.Reward(0.05, 0.01, 60) >= rc.Reward(3.0, 0.2, 70) {
		t.Error("accuracy miss must dominate even multi-joule valid runs")
	}
	// QoS met: -E_mJ + alpha*QoS_ms + beta*acc.
	got := rc.Reward(0.030, 0.040, 70)
	want := -30.0 + 1*50 + 0.1*70
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("QoS-met reward = %v, want %v", got, want)
	}
	// QoS violated: no latency bonus.
	got = rc.Reward(0.030, 0.060, 70)
	want = -30.0 + 0.1*70
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("QoS-violated reward = %v, want %v", got, want)
	}
	// No accuracy target disables the miss branch.
	rc.AccuracyTarget = 0
	if got := rc.Reward(0.05, 0.01, 10); got <= -89 {
		t.Error("accuracy branch must be disabled when target is 0")
	}
}

func TestRewardPrefersQoSSatisfier(t *testing.T) {
	rc := RewardConfig{QoSTargetS: 0.050, Alpha: 1, Beta: 0.1}
	// A satisfying target at 109 mJ must out-reward a violating one at
	// 99 mJ (the Fig 9 ResNet 50 situation).
	sat := rc.Reward(0.109, 0.036, 74.5)
	vio := rc.Reward(0.099, 0.051, 74.5)
	if sat <= vio {
		t.Errorf("satisfier reward %v must beat violator %v", sat, vio)
	}
}

func TestEnergyEstimatorMAPE(t *testing.T) {
	est := NewEnergyEstimator(PaperEnergyMAPE)
	root := exec.NewRoot(7)
	meas := sim.Measurement{EnergyJ: 0.1}
	var sumAbs float64
	const n = 20000
	for i := uint64(0); i < n; i++ {
		e := est.Estimate(root.Child("req", i), meas)
		if e < 0 {
			t.Fatal("estimate must be non-negative")
		}
		sumAbs += math.Abs(e-0.1) / 0.1
	}
	mape := sumAbs / n
	if math.Abs(mape-PaperEnergyMAPE) > 0.01 {
		t.Errorf("estimator MAPE = %.3f, want ~%.3f (paper)", mape, PaperEnergyMAPE)
	}
	// A perfect estimator returns the truth.
	perfect := NewEnergyEstimator(0)
	if perfect.Estimate(root, meas) != 0.1 {
		t.Error("zero-MAPE estimator must be exact")
	}
}

func TestEngineRunInference(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("MobileNet v1")
	d, err := e.RunInferenceCtx(nil, m, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if d.Measurement.LatencyS <= 0 || d.Measurement.EnergyJ <= 0 {
		t.Error("decision lacks a measurement")
	}
	if d.Target != e.Actions.Target(d.ActionIndex) {
		t.Error("decision target/index mismatch")
	}
	if d.QoSTargetS != sim.QoSNonStreamingS {
		t.Errorf("QoS = %v, want non-streaming default", d.QoSTargetS)
	}
	if d.EstimatedEnergyJ <= 0 {
		t.Error("Renergy estimate missing")
	}
	if !e.Agent().HasStateIdx(d.StateIdx) {
		t.Error("state not materialized")
	}
	if d.State != e.States.KeyOf(d.StateIdx) || d.State != e.ObserveState(m, strongCond()) {
		t.Errorf("decision state %q is not the rendered key of index %d", d.State, d.StateIdx)
	}
}

func TestEngineLearnsOptimalInOneState(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("Inception v1")
	c := strongCond()
	for i := 0; i < 300; i++ {
		if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tgt, err := e.Predict(m, c)
	if err != nil {
		t.Fatal(err)
	}
	opt, optMeas, err := e.World.BestTarget(m, c, sim.QoSNonStreamingS, 0)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := e.World.Expected(m, tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if tgt != opt && meas.EnergyJ > optMeas.EnergyJ*1.15 {
		t.Errorf("after 300 runs engine picks %v (%.1f mJ), opt %v (%.1f mJ)",
			tgt, meas.EnergyJ*1e3, opt, optMeas.EnergyJ*1e3)
	}
	if meas.LatencyS > sim.QoSNonStreamingS*1.05 {
		t.Errorf("learned target violates QoS: %v", meas.LatencyS)
	}
}

func TestEngineQoSPerTask(t *testing.T) {
	e := newTestEngine(t)
	bert := dnn.MustByName("MobileBERT")
	d, err := e.RunInferenceCtx(nil, bert, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if d.QoSTargetS != sim.QoSTranslationS {
		t.Errorf("BERT QoS = %v, want translation 100ms", d.QoSTargetS)
	}
	// Streaming intensity changes the vision QoS.
	cfg := DefaultConfig()
	cfg.Intensity = sim.Streaming
	es, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := es.RunInferenceCtx(nil, dnn.MustByName("MobileNet v1"), strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if d2.QoSTargetS != sim.QoSStreamingS {
		t.Errorf("streaming QoS = %v", d2.QoSTargetS)
	}
}

func TestEngineFreeze(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("MobileNet v1")
	for i := 0; i < 50; i++ {
		if _, err := e.RunInferenceCtx(nil, m, strongCond()); err != nil {
			t.Fatal(err)
		}
	}
	e.Freeze()
	s := e.States.Index(ObservationOf(m, strongCond()))
	before := make([]float64, e.Actions.Len())
	for i := range before {
		before[i], _ = e.Agent().QIdx(s, i)
	}
	for i := 0; i < 20; i++ {
		if _, err := e.RunInferenceCtx(nil, m, strongCond()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range before {
		if q, ok := e.Agent().QIdx(s, i); !ok || q != before[i] {
			t.Fatal("frozen engine must not learn")
		}
	}
}

// TestRestoreKeepsFrozen: a restore replaces the table, not the mode — a
// frozen deployment that takes a federated merge or checkpoint warm-start
// must not resume exploring and learning.
func TestRestoreKeepsFrozen(t *testing.T) {
	e := newTestEngine(t)
	e.Freeze()
	data, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreQTable(data); err != nil {
		t.Fatal(err)
	}
	if !e.Agent().Frozen() {
		t.Fatal("RestoreQTable un-froze a frozen engine")
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("MobileNet v1")
	for i := 0; i < 30; i++ {
		e.RunInferenceCtx(nil, m, strongCond())
	}
	data, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	e2 := newTestEngine(t)
	if err := e2.RestoreQTable(data); err != nil {
		t.Fatal(err)
	}
	s := e.States.Index(ObservationOf(m, strongCond()))
	a1, err := e.Agent().BestActionIdx(s, e.Actions.Mask(m))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e2.Agent().BestActionIdx(s, e2.Actions.Mask(m))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("restored engine disagrees with the original")
	}
	// Restoring into a different-size action space must fail.
	moto, err := NewEngine(sim.NewWorld(soc.MotoXForce(), 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := moto.RestoreQTable(data); err == nil {
		t.Error("cross-device restore should fail")
	}
}

func TestEngineTransferAcrossDevices(t *testing.T) {
	donor := newTestEngine(t)
	m := dnn.MustByName("Inception v1")
	for i := 0; i < 200; i++ {
		donor.RunInferenceCtx(nil, m, strongCond())
	}
	donor.Flush()

	moto, err := NewEngine(sim.NewWorld(soc.MotoXForce(), 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := moto.TransferFrom(donor); err != nil {
		t.Fatal(err)
	}
	// The donor's visited states must now exist in the recipient.
	if moto.Agent().NumStates() == 0 {
		t.Error("transfer produced no states")
	}
	// And the transferred knowledge should point off the CPU-FP32 action
	// for Inception v1 (the donor learned DSP/co-processor execution).
	if !moto.Agent().HasStateIdx(moto.States.Index(ObservationOf(m, strongCond()))) {
		t.Fatal("donor state missing after transfer")
	}
	if err := moto.TransferFrom(nil); err == nil {
		t.Error("nil donor should fail")
	}
}

func TestSeedIfUnseenPrefersSameModel(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("ResNet 50")
	// Learn under regular signal.
	reg := strongCond()
	for i := 0; i < 150; i++ {
		e.RunInferenceCtx(nil, m, reg)
	}
	e.Flush()
	sReg := e.States.Index(ObservationOf(m, reg))
	best, err := e.Agent().BestActionIdx(sReg, e.Actions.Mask(m))
	if err != nil {
		t.Fatal(err)
	}
	// A new weak-signal state must seed from the same model's regular
	// state: the initial greedy action matches the learned one.
	weak := sim.Conditions{RSSIWLAN: -90, RSSIP2P: -55}
	sWeak := e.States.Index(ObservationOf(m, weak))
	if e.Agent().HasStateIdx(sWeak) {
		t.Fatal("weak state unexpectedly trained")
	}
	tgt, err := e.Predict(m, weak)
	if err != nil {
		t.Fatal(err)
	}
	if tgt != e.Actions.Target(best) {
		t.Errorf("seeded greedy %v differs from donor best %v", tgt, e.Actions.Target(best))
	}
}

// TestSeedTieBreaksByLowerIndex: when two trained states are equally near a
// new one, the new row is seeded from the lower-index state, whatever order
// the rows were materialized in. Here the higher candidate is materialized
// first, so a scan that kept the first candidate it met in materialization
// order would pick it.
func TestSeedTieBreaksByLowerIndex(t *testing.T) {
	e := newTestEngine(t)
	ag := e.Agent()
	idx := func(key string) int32 {
		i, ok := e.States.Lookup(rl.State(key))
		if !ok {
			t.Fatalf("%s is not on the grid", key)
		}
		return i
	}
	target := idx("0|0|0|0|1|0|0|0")
	lo, hi := idx("0|0|0|0|0|0|0|0"), idx("0|0|0|0|2|0|0|0") // one SCo_CPU bin either side
	ag.CopyRowIdx(hi, hi)
	ag.CopyRowIdx(lo, lo)

	e.seedIfUnseenIdx(ag, target)
	differ := false
	for j := 0; j < ag.NumActions(); j++ {
		got, _ := ag.QIdx(target, j)
		want, _ := ag.QIdx(lo, j)
		other, _ := ag.QIdx(hi, j)
		if got != want {
			t.Fatalf("Q(target,%d) = %v, want the lower candidate's %v (higher: %v)", j, got, want, other)
		}
		differ = differ || want != other
	}
	if !differ {
		t.Fatal("the two candidates' rows are identical; the test cannot tell them apart")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, DefaultConfig()); err == nil {
		t.Error("nil world should fail")
	}
	// A zero config falls back to defaults.
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().RL.LearningRate != 0.9 {
		t.Error("zero config must default to the paper's hyperparameters")
	}
}

func TestEngineAccuracyTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reward.AccuracyTarget = 65
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("Inception v1")
	for i := 0; i < 300; i++ {
		if _, err := e.RunInferenceCtx(nil, m, strongCond()); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	tgt, err := e.Predict(m, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy(tgt.Prec) < 65 {
		t.Errorf("learned target %v has accuracy %v < 65", tgt, m.Accuracy(tgt.Prec))
	}
}

func TestObservationUnderInterference(t *testing.T) {
	e := newTestEngine(t)
	m := dnn.MustByName("MobileNet v1")
	c := strongCond()
	c.Load = interfere.Load{CPUUtil: 0.8, MemUtil: 0.1}
	s1 := e.ObserveState(m, strongCond())
	s2 := e.ObserveState(m, c)
	if s1 == s2 {
		t.Error("interference must change the state")
	}
}

func TestFlushWithoutPending(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPredictOnFreshEngine(t *testing.T) {
	// With an empty table the greedy choice is a random-init pick but must
	// still be feasible.
	e := newTestEngine(t)
	bert := dnn.MustByName("MobileBERT")
	tgt, err := e.Predict(bert, strongCond())
	if err != nil {
		t.Fatal(err)
	}
	if !e.World.Feasible(bert, tgt) {
		t.Errorf("fresh predict returned infeasible %v", tgt)
	}
}

func TestDonorActionMapping(t *testing.T) {
	donor, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewEngine(sim.NewWorld(soc.GalaxyS10e(), 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every S10e action must map to a same-(location,kind,precision) donor
	// action except none (the Mi8Pro is a superset of the S10e's engines).
	for i := 0; i < dst.Actions.Len(); i++ {
		t1 := dst.Actions.Target(i)
		j := donorActionFor(t1, dst, donor)
		if j < 0 {
			t.Fatalf("no donor action for %v", t1)
		}
		t2 := donor.Actions.Target(j)
		if t1.Location != t2.Location || t1.Kind != t2.Kind || t1.Prec != t2.Prec {
			t.Fatalf("mapping %v -> %v changes identity", t1, t2)
		}
	}
	// The reverse direction has unmappable actions (the S10e has no DSP).
	dspT := sim.Target{Location: sim.Local, Kind: soc.DSP, Prec: dnn.INT8}
	if j := donorActionFor(dspT, donor, dst); j >= 0 {
		t.Error("Mi8Pro DSP must not map onto the S10e")
	}
	// Relative-step mapping: the S10e's top CPU step maps to the Mi8Pro's.
	s10eCPU := dst.World.Device.Processor(soc.CPU)
	top := sim.Target{Location: sim.Local, Kind: soc.CPU, Step: s10eCPU.Steps - 1, Prec: dnn.FP32}
	j := donorActionFor(top, dst, donor)
	mapped := donor.Actions.Target(j)
	mi8CPU := donor.World.Device.Processor(soc.CPU)
	if mapped.Step != mi8CPU.Steps-1 {
		t.Errorf("top step mapped to donor step %d, want %d", mapped.Step, mi8CPU.Steps-1)
	}
}

// TestTransferDeterministicWithUnmappedActions: when a local action has no
// donor counterpart it keeps its local initialization, which is drawn from
// the recipient's RNG as each donor row arrives — so the order rows arrive in
// is part of the result. Rows are imported in ascending state index, making
// the transferred table a function of the seeds alone; a walk in Go's map
// iteration order fails this test. Moto X Force -> Mi 8 Pro leaves one of the
// 66 local actions unmapped.
func TestTransferDeterministicWithUnmappedActions(t *testing.T) {
	transfer := func() []byte {
		donor, err := NewEngine(sim.NewWorld(soc.MotoXForce(), 2), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		env, err := sim.NewEnvironment(sim.EnvD4, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, zoo := 0, dnn.Zoo(); i < 60; i++ {
			if _, err := donor.RunInferenceCtx(nil, zoo[i%3], env.Sample()); err != nil {
				t.Fatal(err)
			}
		}
		if donor.Agent().NumStates() < 5 {
			t.Fatalf("donor has %d states; the order of several rows is the point", donor.Agent().NumStates())
		}
		dst := newTestEngine(t)
		unmapped := 0
		for i := 0; i < dst.Actions.Len(); i++ {
			if donorActionFor(dst.Actions.Target(i), dst, donor) < 0 {
				unmapped++
			}
		}
		if unmapped == 0 {
			t.Fatal("every local action has a donor counterpart; pick another device pair")
		}
		if err := dst.TransferFrom(donor); err != nil {
			t.Fatal(err)
		}
		snap, err := dst.SnapshotQTable()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	first := transfer()
	for run := 2; run <= 5; run++ {
		if got := transfer(); string(got) != string(first) {
			t.Fatalf("run %d transferred a different table than run 1", run)
		}
	}
}
