// Package exp contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section VI) on the simulated
// edge–cloud world: policy evaluation loops, the AutoScale training protocol
// of Section V-C (100 inference runs per NN per runtime-variance state,
// leave-one-out cross-validation across NNs), and one entry point per
// figure/table.
package exp

import (
	"fmt"
	"slices"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/interfere"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
)

// Cell identifies one (model, environment) aggregation bucket.
type Cell struct {
	Model string
	Env   string
}

// Result aggregates a policy's behaviour over an evaluation run.
type Result struct {
	Policy string
	// MeanEnergyJ / MeanLatencyS are per-cell means.
	MeanEnergyJ  map[Cell]float64
	MeanLatencyS map[Cell]float64
	// QoSViolRatio is the per-cell fraction of inferences over the QoS
	// target.
	QoSViolRatio map[Cell]float64
	// Decisions histograms the chosen execution locations.
	Decisions map[sim.Location]int
	// Inferences is the total number of requests served.
	Inferences int
}

// PPW returns the per-cell performance-per-watt (inferences per joule).
func (r Result) PPW(c Cell) float64 {
	e := r.MeanEnergyJ[c]
	if e <= 0 {
		return 0
	}
	return 1 / e
}

// MeanNormPPW averages, over the given cells, this result's PPW normalized
// to a baseline result (the paper's "average energy efficiency normalized to
// Edge (CPU FP32)").
func (r Result) MeanNormPPW(base Result, cells []Cell) float64 {
	var sum float64
	var n int
	for _, c := range cells {
		bp := base.PPW(c)
		if bp <= 0 {
			continue
		}
		sum += r.PPW(c) / bp
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanQoSViolation averages the per-cell QoS violation ratio.
func (r Result) MeanQoSViolation(cells []Cell) float64 {
	var sum float64
	var n int
	for _, c := range cells {
		if v, ok := r.QoSViolRatio[c]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Cells enumerates the (model, env) buckets of a model/environment matrix.
func Cells(models []*dnn.Model, envIDs []string) []Cell {
	var out []Cell
	for _, m := range models {
		for _, e := range envIDs {
			out = append(out, Cell{Model: m.Name, Env: e})
		}
	}
	return out
}

// EvalConfig parameterizes an evaluation run.
type EvalConfig struct {
	Models    []*dnn.Model
	EnvIDs    []string
	Runs      int // inferences per (model, env) cell
	Intensity sim.Intensity
	Accuracy  float64 // accuracy target in percent; 0 disables
	Seed      int64
	// WarmupRuns, when positive and the policy supports online learning,
	// runs this many unmeasured adaptation inferences per (model, env)
	// cell before measurement begins. The paper reports post-convergence
	// numbers (reward converges in 40-50 runs, Fig 14) and quantifies the
	// pre-convergence gap separately (Section VI-C).
	WarmupRuns int
}

// OnlineLearner is implemented by policies that adapt online (AutoScale);
// EvaluatePolicy uses it to run the warm-up phase with exploration enabled.
type OnlineLearner interface {
	// Warmup runs unmeasured adaptation inferences of m drawn from sample.
	Warmup(m *dnn.Model, sample func() sim.Conditions, runs int) error
}

// EvaluatePolicy runs a policy over every (model, env) cell and aggregates.
// Every request runs under an execution context derived from (cfg.Seed,
// model, env, run index), so its stochastic draws are independent of any
// shared world state.
func EvaluatePolicy(p sched.Policy, cfg EvalConfig) (Result, error) {
	res := Result{
		Policy:       p.Name(),
		MeanEnergyJ:  make(map[Cell]float64),
		MeanLatencyS: make(map[Cell]float64),
		QoSViolRatio: make(map[Cell]float64),
		Decisions:    make(map[sim.Location]int),
	}
	root := exec.NewRoot(cfg.Seed).Child("eval")
	for _, m := range cfg.Models {
		qos := sim.QoSFor(m.Task == dnn.Translation, cfg.Intensity)
		for _, envID := range cfg.EnvIDs {
			env, err := sim.NewEnvironment(envID, cfg.Seed)
			if err != nil {
				return Result{}, err
			}
			cell := Cell{Model: m.Name, Env: envID}
			cellCtx := root.Child(m.Name + "/" + envID)
			if ol, ok := p.(OnlineLearner); ok && cfg.WarmupRuns > 0 {
				if err := ol.Warmup(m, env.Sample, cfg.WarmupRuns); err != nil {
					return Result{}, err
				}
			}
			var energy, latency float64
			var viol int
			for i := 0; i < cfg.Runs; i++ {
				meas, err := p.RunCtx(cellCtx.Child("req", uint64(i)), m, env.Sample())
				if err != nil {
					return Result{}, fmt.Errorf("exp: %s on %s/%s: %w", p.Name(), m.Name, envID, err)
				}
				energy += meas.EnergyJ
				latency += meas.LatencyS
				if meas.LatencyS > qos {
					viol++
				}
				res.Decisions[meas.Target.Location]++
				res.Inferences++
			}
			n := float64(cfg.Runs)
			res.MeanEnergyJ[cell] = energy / n
			res.MeanLatencyS[cell] = latency / n
			res.QoSViolRatio[cell] = float64(viol) / n
		}
	}
	return res, nil
}

// compare runs a comparison grid: for each of variants (a device, an
// environment setting, an accuracy target, a world edit) lineup returns the
// policies to compare and the evaluation they share. Every (variant, policy)
// pair is one pure cell on the pool, and lineup runs inside each cell, so
// every cell builds its own world and policies. res[v][p] is policy p of
// variant v; lineups put the variant's Edge (CPU FP32) normaliser first.
func compare(opts Options, variants int, lineup func(v int) ([]sched.Policy, EvalConfig)) ([][]Result, error) {
	type cell struct{ v, p int }
	var cells []cell
	for v := 0; v < variants; v++ {
		ps, _ := lineup(v)
		for p := range ps {
			cells = append(cells, cell{v, p})
		}
	}
	flat, err := runCells(opts, len(cells), func(i int) (Result, error) {
		ps, cfg := lineup(cells[i].v)
		return EvaluatePolicy(ps[cells[i].p], cfg)
	})
	if err != nil {
		return nil, err
	}
	res := make([][]Result, variants)
	for i, c := range cells {
		res[c.v] = append(res[c.v], flat[i])
	}
	return res, nil
}

// VarianceState is one combination of the Table I runtime-variance features,
// used as a training condition generator (the paper trains 100 runs per NN
// in each runtime-variance-related state).
type VarianceState struct {
	CoCPU, CoMem float64 // fractions 0..1
	RSSIW, RSSIP float64 // dBm
}

// VarianceGrid enumerates representative points of every runtime-variance
// state of Table I: 4 co-CPU bins x 4 co-mem bins x 2 WLAN RSSI bins x
// 2 P2P RSSI bins = 64 states.
func VarianceGrid() []VarianceState {
	cpuLevels := []float64{0, 0.12, 0.50, 0.85}
	memLevels := []float64{0, 0.12, 0.50, 0.85}
	rssiLevels := []float64{-55, -88}
	var out []VarianceState
	for _, cu := range cpuLevels {
		for _, mu := range memLevels {
			for _, rw := range rssiLevels {
				for _, rp := range rssiLevels {
					out = append(out, VarianceState{CoCPU: cu, CoMem: mu, RSSIW: rw, RSSIP: rp})
				}
			}
		}
	}
	return out
}

// Conditions materializes the variance state into sim conditions with a
// little jitter so the training distribution covers each bin's interior.
func (v VarianceState) Conditions(rng *exec.Rand) sim.Conditions {
	jitter := func(x, sigma, lo, hi float64) float64 {
		if x == 0 {
			return 0 // keep the "none" bin exactly at zero load
		}
		y := x + sigma*rng.NormFloat64()
		if y < lo {
			y = lo
		}
		if y > hi {
			y = hi
		}
		return y
	}
	return sim.Conditions{
		Load: interfere.Load{
			CPUUtil: jitter(v.CoCPU, 0.04, 0.01, 1),
			MemUtil: jitter(v.CoMem, 0.04, 0.01, 1),
		},
		RSSIWLAN: v.RSSIW + 2*rng.NormFloat64(),
		RSSIP2P:  v.RSSIP + 2*rng.NormFloat64(),
	}
}

// TrainConfig parameterizes AutoScale training.
type TrainConfig struct {
	// Models to train on.
	Models []*dnn.Model
	// RunsPerState is the number of inference runs per (model, variance
	// state); the paper uses 100.
	RunsPerState int
	// Intensity and Accuracy flow into the engine's reward.
	Intensity sim.Intensity
	Accuracy  float64
	Seed      int64
}

// TrainEngine runs the paper's training protocol on an engine: for every
// model and every runtime-variance state of the grid, RunsPerState
// inferences with epsilon-greedy learning.
func TrainEngine(e *core.Engine, cfg TrainConfig) error {
	rng := exec.NewRoot(cfg.Seed).Stream("exp.train")
	if err := trainModels(e, cfg.Models, VarianceGrid(), cfg.RunsPerState, rng); err != nil {
		return err
	}
	return e.Flush()
}

// trainModels is the protocol's step loop: for each model in order, runs
// inferences in every state of grid with conditions drawn from rng.
func trainModels(e *core.Engine, models []*dnn.Model, grid []VarianceState, runs int, rng *exec.Rand) error {
	for _, m := range models {
		for _, vs := range grid {
			for i := 0; i < runs; i++ {
				if _, err := e.RunInferenceCtx(nil, m, vs.Conditions(rng)); err != nil {
					return fmt.Errorf("exp: train %s: %w", m.Name, err)
				}
			}
		}
	}
	return nil
}

// NewTrainedEngine builds and trains an AutoScale engine on a world.
func NewTrainedEngine(w *sim.World, ecfg core.Config, tcfg TrainConfig) (*core.Engine, error) {
	ecfg.Intensity = tcfg.Intensity
	ecfg.Reward.AccuracyTarget = tcfg.Accuracy
	e, err := core.NewEngine(w, ecfg)
	if err != nil {
		return nil, err
	}
	if err := TrainEngine(e, tcfg); err != nil {
		return nil, err
	}
	return e, nil
}

// AutoScalePolicy adapts a trained engine to the Policy interface. The
// engine keeps learning unless frozen.
type AutoScalePolicy struct {
	Engine *core.Engine
	// Label overrides the policy name (default "AutoScale").
	Label string
}

// Name implements Policy.
func (p *AutoScalePolicy) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "AutoScale"
}

// RunCtx implements sched.Policy.
func (p *AutoScalePolicy) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	d, err := p.Engine.RunInferenceCtx(ctx, m, c)
	if err != nil {
		return sim.Measurement{}, err
	}
	return d.Measurement, nil
}

// LeaveOneOutAutoScale implements the paper's testing protocol: for each
// tested model it uses an engine trained on the other nine (Section V-C).
// On the first EngineFor it trains the whole family of such engines as a
// prefix tree (see family), or takes it from the pass's memo when the policy
// shares; each tested model then gets its own fork of its family engine on
// World. A model outside Train.Models is tested with an engine trained on
// all of them. The engines act greedily (epsilon 0) but keep learning online,
// so they adapt to the held-out model's states (Section IV-B).
type LeaveOneOutAutoScale struct {
	World  *sim.World
	Config core.Config
	Train  TrainConfig

	// pass, when set, is the experiment pass whose memo the family comes
	// from; nil trains it privately.
	pass    *Options
	fam     *family
	engines map[string]*core.Engine
}

// Name implements Policy.
func (*LeaveOneOutAutoScale) Name() string { return "AutoScale" }

// RunCtx implements sched.Policy.
func (p *LeaveOneOutAutoScale) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	e, err := p.engineFor(m)
	if err != nil {
		return sim.Measurement{}, err
	}
	d, err := e.RunInferenceCtx(ctx, m, c)
	if err != nil {
		return sim.Measurement{}, err
	}
	return d.Measurement, nil
}

// EngineFor returns the engine used to test the given model (trained on
// every other training model, acting greedily, still learning online).
func (p *LeaveOneOutAutoScale) EngineFor(m *dnn.Model) (*core.Engine, error) {
	return p.engineFor(m)
}

// Warmup implements OnlineLearner: it re-enables exploration, adapts on
// unmeasured runs, then returns to greedy exploitation.
func (p *LeaveOneOutAutoScale) Warmup(m *dnn.Model, sample func() sim.Conditions, runs int) error {
	e, err := p.engineFor(m)
	if err != nil {
		return err
	}
	if err := e.Agent().SetEpsilon(p.Config.RL.Epsilon); err != nil {
		return err
	}
	for i := 0; i < runs; i++ {
		if _, err := e.RunInferenceCtx(nil, m, sample()); err != nil {
			return err
		}
	}
	return e.Agent().SetEpsilon(0)
}

// Warmup implements OnlineLearner for the single-engine adapter.
func (p *AutoScalePolicy) Warmup(m *dnn.Model, sample func() sim.Conditions, runs int) error {
	for i := 0; i < runs; i++ {
		if _, err := p.Engine.RunInferenceCtx(nil, m, sample()); err != nil {
			return err
		}
	}
	return nil
}

func (p *LeaveOneOutAutoScale) engineFor(m *dnn.Model) (*core.Engine, error) {
	if e, ok := p.engines[m.Name]; ok {
		return e, nil
	}
	models := p.Train.Models
	held := slices.IndexFunc(models, func(tm *dnn.Model) bool { return tm.Name == m.Name })
	if len(models) == 0 || held >= 0 && len(models) == 1 {
		return nil, fmt.Errorf("exp: no training models besides %s", m.Name)
	}
	if p.fam == nil {
		var err error
		if p.pass != nil {
			p.fam, err = p.pass.sharedFamily(p.World, p.Config, p.Train)
		} else {
			p.fam, err = trainFamily(p.World, p.Config, p.Train)
		}
		if err != nil {
			return nil, err
		}
	}
	e, err := p.fam.engineOn(p.World, held)
	if err != nil {
		return nil, err
	}
	if err := e.Agent().SetEpsilon(0); err != nil {
		return nil, err
	}
	if p.engines == nil {
		p.engines = make(map[string]*core.Engine)
	}
	p.engines[m.Name] = e
	return e, nil
}

// Baselines constructs the paper's comparison policy set for a world:
// Edge (CPU FP32), Edge (Best), Cloud, Connected Edge, and Opt.
func Baselines(w *sim.World, intensity sim.Intensity, accuracy float64) []sched.Policy {
	return []sched.Policy{
		sched.EdgeCPU{World: w},
		&sched.EdgeBest{World: w, Intensity: intensity, Accuracy: accuracy},
		sched.CloudAll{World: w},
		&sched.ConnectedEdge{World: w, Intensity: intensity, Accuracy: accuracy},
		sched.Opt{World: w, Intensity: intensity, Accuracy: accuracy},
	}
}
