package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/obs"
	"autoscale/internal/rl"
	"autoscale/internal/sim"
)

// Config assembles an AutoScale engine.
type Config struct {
	// Reward parameterizes equation (5). If Reward.QoSTargetS is zero the
	// engine derives the QoS target per request from the model's task and
	// the configured Intensity (Section V-B scenarios).
	Reward RewardConfig
	// Intensity selects the computer-vision usage mode used to derive
	// per-request QoS targets when Reward.QoSTargetS is zero.
	Intensity sim.Intensity
	// RL holds the Q-learning hyperparameters.
	RL rl.Config
	// EnergyMAPE is the relative error of the Renergy estimator
	// (paper: 0.073). Non-positive means a perfect estimator.
	EnergyMAPE float64
	// Algorithm selects the TD update rule: AlgorithmQLearning (default,
	// the paper's choice) or AlgorithmSARSA (the on-policy alternative
	// the paper weighs it against).
	Algorithm Algorithm
	// PartitionActions adds the layer-granularity partition actions of
	// the paper's footnote 4 extension to the action space.
	PartitionActions bool
	// States overrides the Table I state space (nil = paper default).
	States *StateSpace
	// Seed roots the engine's per-step request contexts: the streams a Step
	// without a caller-supplied context draws from (the energy estimate's
	// error among them).
	Seed int64
}

// DefaultConfig returns the paper's configuration — gamma = 0.9, mu = 0.1,
// epsilon = 0.1, beta = 0.1, 7.3% Renergy MAPE — with the latency weight
// alpha raised to 1.0 per the boundary-valued latency term (see
// RewardConfig and DESIGN.md).
func DefaultConfig() Config {
	return Config{
		Reward:     RewardConfig{Alpha: 1.0, Beta: 0.1},
		RL:         rl.DefaultConfig(),
		EnergyMAPE: PaperEnergyMAPE,
		Seed:       1,
	}
}

// Algorithm selects the engine's temporal-difference update rule.
type Algorithm int

// Supported update rules.
const (
	// AlgorithmQLearning is the paper's off-policy choice (Algorithm 1).
	AlgorithmQLearning Algorithm = iota
	// AlgorithmSARSA bootstraps from the action the policy actually takes
	// next; same table, same overhead, on-policy semantics.
	AlgorithmSARSA
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	if a == AlgorithmSARSA {
		return "SARSA"
	}
	return "Q-learning"
}

// Decision records one engine step: what was observed, chosen, measured and
// learned.
type Decision struct {
	// State is the rendered key of StateIdx, the dense index the agent's
	// table is addressed by.
	State       rl.State
	StateIdx    int32
	ActionIndex int
	Target      sim.Target
	Measurement sim.Measurement
	// EstimatedEnergyJ is the Renergy fed to the reward.
	EstimatedEnergyJ float64
	Reward           float64
	QoSTargetS       float64
	QoSViolated      bool
	AccuracyMissed   bool
}

// Engine is the AutoScale execution-scaling engine of Fig 8. It is safe for
// concurrent use by multiple services sharing one device: the paper deploys
// AutoScale "as part of intelligent services" on the mobile CPU, and a phone
// runs several such services at once — and the serving gateway drives one
// engine per device from its worker goroutines.
//
// Concurrency contract: every method serializes on one mutex, so each Step
// (observe, complete the staged update and select, execute, reward, stage
// the next update) is atomic with respect to the others. A Step enters the
// agent once: StepIdx completes the update and selects under one hold of
// the agent's writer lock, so an agent write that bypasses the engine's
// mutex (TransferFrom's import) lands before or after that pair, never
// between the update and the selection that reads it. Lock-free readers
// (Predict on a seen state) may run at any point. Under concurrent callers
// the deferred Algorithm 1 update chain interleaves across callers — each
// step's staged (S, A, R) completes against the next observed state
// regardless of which caller observes it — which matches the paper's
// single-decision-stream semantics: the device executes one inference at a
// time, so the engine sees one totally ordered decision sequence.
type Engine struct {
	World   *sim.World
	Actions *ActionSpace
	States  *StateSpace

	// agent is published through an atomic pointer so pure-read paths
	// (Predict on a materialized state, Agent, Health) never take mu; the
	// swaps (NewEngine, Reset, RestoreQTable) serialize on mu.
	agent atomic.Pointer[rl.Agent]

	mu    sync.Mutex
	cfg   Config
	sarsa *rl.SarsaAgent // non-nil when cfg.Algorithm == AlgorithmSARSA
	est   *EnergyEstimator
	// pending is the previous step's (S, A, R), staged until the next step
	// observes S′ (Algorithm 1); hasPending says whether one is staged. The
	// state is kept as its dense index — no key formatting on the decide
	// path.
	pending    rl.Staged
	hasPending bool
	// root and steps derive a per-step execution context for steps called
	// with a nil ctx; stepCtx is the reused scratch those steps are keyed
	// into (guarded by mu, never retained past the step).
	root    *exec.Context
	steps   uint64
	stepCtx exec.Context
	// rewards is a ring of the last rewardWindow step rewards feeding the
	// Health gauge (see health.go).
	rewards   []float64
	rewardIdx int
	rewardN   int
	// nn indexes the installed agent's rows for cold-state seeding (see
	// neighbor.go); installAgentLocked empties it.
	nn neighborIndex
}

// NewEngine builds an engine for a world.
func NewEngine(w *sim.World, cfg Config) (*Engine, error) {
	if w == nil {
		return nil, errors.New("core: nil world")
	}
	if cfg.Reward.Alpha == 0 && cfg.Reward.Beta == 0 && cfg.RL.LearningRate == 0 {
		cfg = DefaultConfig()
	}
	states := cfg.States
	if states == nil {
		states = NewStateSpace()
	}
	actions := NewActionSpace(w)
	if cfg.PartitionActions {
		actions = NewActionSpaceWithPartitions(w)
	}
	e := &Engine{
		World:   w,
		Actions: actions,
		States:  states,
		cfg:     cfg,
		est:     NewEnergyEstimator(cfg.EnergyMAPE),
		root:    exec.NewRoot(cfg.Seed).Child("engine"),
	}
	if err := e.freshAgentLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// freshAgentLocked installs an untrained agent on the engine's own state
// grid, wrapped for SARSA when that is the configured rule. Caller holds mu
// (or is the constructor).
func (e *Engine) freshAgentLocked() error {
	agent, err := rl.NewAgent(e.cfg.RL, e.Actions.Len(), e.States)
	if err != nil {
		return err
	}
	e.installAgentLocked(agent)
	return nil
}

// installAgentLocked publishes agent as the engine's table, keeping the
// configured update rule and dropping any staged update. Caller holds mu.
func (e *Engine) installAgentLocked(agent *rl.Agent) {
	e.sarsa = nil
	if e.cfg.Algorithm == AlgorithmSARSA {
		e.sarsa = &rl.SarsaAgent{Agent: agent}
	}
	e.agent.Store(agent)
	e.hasPending = false
	e.nn = neighborIndex{}
}

// Agent exposes the underlying Q-learning agent (for persistence, transfer
// and inspection). The agent is itself safe for concurrent use; the field is
// an atomic pointer, so this never blocks on a step in flight.
func (e *Engine) Agent() *rl.Agent { return e.agent.Load() }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// qosFor resolves the latency constraint for a request.
func (e *Engine) qosFor(m *dnn.Model) float64 {
	if e.cfg.Reward.QoSTargetS > 0 {
		return e.cfg.Reward.QoSTargetS
	}
	return sim.QoSFor(m.Task == dnn.Translation, e.cfg.Intensity)
}

// ObserveState discretizes the current request into its Q-table state.
func (e *Engine) ObserveState(m *dnn.Model, c sim.Conditions) rl.State {
	return e.States.Key(ObservationOf(m, c))
}

// Predict returns the engine's current greedy choice for a request without
// executing or learning — the trained-table exploitation path whose lookup
// overhead Section VI-C reports.
//
// For a state the agent has already materialized this is the zero-alloc,
// lock-free Decide fast path: dense index arithmetic, cached feasibility
// mask, one atomic table read. Never-seen states fall to the writer path,
// which seeds the row from the nearest trained neighbour exactly as before.
func (e *Engine) Predict(m *dnn.Model, c sim.Conditions) (sim.Target, error) {
	sIdx := e.States.Index(ObservationOf(m, c))
	ag := e.agent.Load()
	if ag.HasStateIdx(sIdx) {
		idx, err := ag.BestActionIdx(sIdx, e.Actions.Mask(m))
		if err != nil {
			return sim.Target{}, fmt.Errorf("core: predict %s: %w", m.Name, err)
		}
		return e.Actions.Target(idx), nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ag = e.agent.Load()
	e.seedIfUnseenIdx(ag, sIdx)
	idx, err := ag.BestActionIdx(sIdx, e.Actions.Mask(m))
	if err != nil {
		return sim.Target{}, fmt.Errorf("core: predict %s: %w", m.Name, err)
	}
	return e.Actions.Target(idx), nil
}

// RunInferenceCtx is Step with no target filter and no provenance capture:
// the simulator's stochastic draws and the Renergy estimation error come
// from ctx's named streams, tying them to the request's identity rather
// than the engine's call history. A nil ctx makes them a pure function of
// the engine seed and the step index.
func (e *Engine) RunInferenceCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (Decision, error) {
	return e.Step(ctx, m, c, nil)
}

// Step performs one full engine step: observe the state (completing the
// previous step's deferred Q update with it, per Algorithm 1), select an
// action epsilon-greedily, execute the inference on the simulated world,
// estimate Renergy, compute the reward and stage the update.
//
// The two optional arguments may each be nil. A nil ctx derives a per-step
// execution context from the engine's root and step counter. The action
// mask is the model's feasibility mask (ActionSpace.Mask), the paper's only
// masking: actions that break the accuracy constraint. prov receives the
// step's decision provenance: the agent's selection fields, then the state
// index and the mask applied once the step succeeds; a failed step leaves
// it zeroed. Capture draws nothing, so traced and untraced runs
// of the same seed take identical decisions. The observed Q-state uses the
// conditions as the world actually degrades them (scripted RSSI ramps
// applied), so the agent learns against what execution will see.
func (e *Engine) Step(ctx *exec.Context, m *dnn.Model, c sim.Conditions, prov *obs.Provenance) (Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ctx == nil {
		e.steps++
		e.root.Rekey(&e.stepCtx, "step", e.steps)
		ctx = &e.stepCtx
	}
	ag := e.agent.Load()
	mask := e.Actions.Mask(m)
	sIdx := e.States.Index(ObservationOf(m, e.World.ObservedConditions(ctx, c)))
	e.seedIfUnseenIdx(ag, sIdx)

	// One agent call completes the previous step's update against S′ and
	// selects for S′ (Algorithm 1). Q-learning updates first, so the
	// selection sees the freshest values; SARSA bootstraps from the action
	// it selects. Either consumes the staged update when it succeeds, and
	// Q-learning also when the mask enables nothing (the update applies
	// before the selection fails).
	var st *rl.Staged
	if e.hasPending {
		st = &e.pending
	}
	var idx int
	var err error
	if e.sarsa != nil {
		idx, err = e.sarsa.StepIdx(st, sIdx, mask, prov)
	} else {
		idx, err = ag.StepIdx(st, sIdx, mask, prov)
	}
	if err == nil || (e.sarsa == nil && errors.Is(err, rl.ErrNoEnabled)) {
		e.hasPending = false
	}
	if err != nil {
		return Decision{}, fmt.Errorf("core: select for %s: %w", m.Name, err)
	}
	target := e.Actions.Target(idx)

	meas, err := e.Actions.ExecuteCtx(ctx, m, idx, c)
	if err != nil {
		prov.Reset()
		return Decision{}, err
	}
	if prov != nil {
		prov.StateIdx = sIdx
		prov.Mask = append(prov.Mask[:0], mask...)
		prov.MaskedOut = 0
		for _, ok := range mask {
			if !ok {
				prov.MaskedOut++
			}
		}
	}

	qos := e.qosFor(m)
	rc := e.cfg.Reward
	rc.QoSTargetS = qos
	energyEst := e.est.Estimate(ctx, meas)
	reward := rc.Reward(energyEst, meas.LatencyS, meas.Accuracy)
	e.noteRewardLocked(reward)

	if !ag.Frozen() {
		e.pending = rl.Staged{State: sIdx, Action: idx, Reward: reward}
		e.hasPending = true
	}

	return Decision{
		State:            e.States.KeyOf(sIdx),
		StateIdx:         sIdx,
		ActionIndex:      idx,
		Target:           target,
		Measurement:      meas,
		EstimatedEnergyJ: energyEst,
		Reward:           reward,
		QoSTargetS:       qos,
		QoSViolated:      meas.LatencyS > qos,
		AccuracyMissed:   rc.AccuracyTarget > 0 && meas.Accuracy < rc.AccuracyTarget,
	}, nil
}

// Now returns the engine's virtual time: the simulated seconds accumulated
// by every inference executed through it (nil-ctx and explicit-context
// steps share the root clock). Fault schedules and the serving layer's
// gray windows and drills key on this time base.
func (e *Engine) Now() float64 { return e.root.Now() }

// AdvanceTo fast-forwards the engine's virtual clock to t if it lags behind
// (idle time: the engine accumulated less busy time than has elapsed on the
// caller's arrival clock). Never moves the clock backwards. The serving
// layer uses it so an arrival-stamped request on an idle lane starts at its
// arrival time, making Now() a true virtual wall clock rather than a pure
// busy-time accumulator.
func (e *Engine) AdvanceTo(t float64) {
	if d := t - e.root.Now(); d > 0 {
		e.root.Advance(d)
	}
}

// Fork returns an independent engine on world w that continues exactly as
// this one would: a clone of the agent, the staged update, the step counter,
// the reward ring and a fresh root clock standing at Now(). The action space
// is rebuilt on w (with partitions when configured); a world with a
// different action count is refused. Stepping either engine afterwards never
// moves the other. Callers fork a trained engine to reuse its training; w
// must behave as the engine's own world does for the continuation to match.
func (e *Engine) Fork(w *sim.World) (*Engine, error) {
	if w == nil {
		return nil, errors.New("core: nil world")
	}
	actions := NewActionSpace(w)
	if e.cfg.PartitionActions {
		actions = NewActionSpaceWithPartitions(w)
	}
	if actions.Len() != e.Actions.Len() {
		return nil, fmt.Errorf("core: fork: world has %d actions, engine has %d", actions.Len(), e.Actions.Len())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	f := &Engine{
		World:     w,
		Actions:   actions,
		States:    e.States,
		cfg:       e.cfg,
		est:       e.est,
		root:      exec.NewRoot(e.cfg.Seed).Child("engine"),
		steps:     e.steps,
		rewards:   slices.Clone(e.rewards),
		rewardIdx: e.rewardIdx,
		rewardN:   e.rewardN,
	}
	f.root.Advance(e.root.Now())
	f.installAgentLocked(e.agent.Load().Clone())
	f.pending, f.hasPending = e.pending, e.hasPending
	return f, nil
}

// Reset discards the engine's in-memory learning state — fresh agent,
// no staged update — while keeping the world, action space, estimator and
// virtual clock. This models a worker crash: everything not checkpointed is
// gone — the Freeze mode included, lost with the table — but simulated time
// keeps flowing. Callers typically follow with a warm-start from the last
// durable checkpoint.
func (e *Engine) Reset() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.freshAgentLocked(); err != nil {
		return err
	}
	e.rewards = nil
	e.rewardIdx, e.rewardN = 0, 0
	return nil
}

// Flush applies any staged Q update using the last observed state as S'
// (end-of-episode approximation). Call it when a training run ends.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasPending {
		return nil
	}
	p := e.pending
	e.hasPending = false
	return e.agent.Load().UpdateIdx(p.State, p.Action, p.Reward, p.State, nil)
}

// Freeze switches the engine to exploitation-only mode (greedy policy, no
// learning), discarding any staged update.
func (e *Engine) Freeze() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hasPending = false
	e.agent.Load().Freeze()
}

// TransferFrom warm-starts this engine's Q-table from another engine — the
// paper's learning transfer across devices (Section VI-C). Action spaces may
// differ (other DVFS ladders, missing co-processors): each local action maps
// to the donor action with the same location/kind/precision and the nearest
// relative DVFS position; actions with no donor counterpart keep their local
// initialization. Donor rows are imported in ascending state index, so the
// result is a function of the two engines' seeds alone.
func (e *Engine) TransferFrom(donor *Engine) error {
	if donor == nil {
		return errors.New("core: nil donor engine")
	}
	mapping := make([]int, e.Actions.Len())
	for i := range mapping {
		mapping[i] = donorActionFor(e.Actions.Target(i), e, donor)
	}
	return e.Agent().ImportMapped(donor.Agent(), mapping)
}

// donorActionFor finds the donor action semantically closest to target t, or
// -1 when the donor has no engine of that location/kind/precision.
func donorActionFor(t sim.Target, dst, donor *Engine) int {
	rel := func(e *Engine, u sim.Target) float64 {
		if u.Location != sim.Local {
			return 0
		}
		proc := e.World.Device.Processor(u.Kind)
		if proc == nil || proc.Steps <= 1 {
			return 1
		}
		return float64(u.Step) / float64(proc.Steps-1)
	}
	want := rel(dst, t)
	best, bestDist := -1, 0.0
	for j, u := range donor.Actions.Targets() {
		if !u.SameEngine(t) {
			continue
		}
		d := rel(donor, u) - want
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// SnapshotQTable serializes the engine's Q-table.
func (e *Engine) SnapshotQTable() ([]byte, error) { return e.Agent().Snapshot() }

// RestoreQTable replaces the engine's agent with one restored from a
// snapshot onto this engine's state grid; the action-space size must match
// and every key must be one the grid renders (a table from a foreign state
// space is refused by name, and the current table stays in place). A restore
// replaces the table, not the mode: a Freeze()d engine stays frozen, and the
// engine keeps its configured update rule (a SARSA engine re-wraps the
// restored table instead of silently falling back to Q-learning).
func (e *Engine) RestoreQTable(data []byte) error {
	ag, err := rl.Restore(data, e.States)
	if err != nil {
		return err
	}
	if ag.NumActions() != e.Actions.Len() {
		return fmt.Errorf("core: snapshot has %d actions, world has %d", ag.NumActions(), e.Actions.Len())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agent.Load().Frozen() {
		ag.Freeze()
	}
	e.installAgentLocked(ag)
	return nil
}
