package exp

import (
	"fmt"
	"math"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/interfere"
	"autoscale/internal/predict"
	"autoscale/internal/sim"
)

// Feature encoding shared by all prediction-based approaches: the eight
// Table I observables in raw units (each predictor standardizes internally).
func featuresOf(m *dnn.Model, c sim.Conditions) []float64 {
	o := core.ObservationOf(m, c)
	return []float64{
		float64(o.NumConv), float64(o.NumFC), float64(o.NumRC),
		o.MACs / 1e9, o.CoCPU, o.CoMem, o.RSSIW, o.RSSIP,
	}
}

// ProfileConfig controls offline profiling-dataset generation.
type ProfileConfig struct {
	Models []*dnn.Model
	// ActionsPerState is how many randomly chosen actions are profiled in
	// each (model, variance state).
	ActionsPerState int
	// WithVariance includes the non-trivial variance-grid states; when
	// false only the no-variance state is profiled.
	WithVariance bool
	Intensity    sim.Intensity
	Accuracy     float64
	Seed         int64
}

// BuildDataset profiles random actions over the variance grid, producing the
// training samples the regression/BO approaches fit on.
func BuildDataset(w *sim.World, cfg ProfileConfig) ([]predict.Sample, error) {
	if cfg.ActionsPerState < 1 {
		cfg.ActionsPerState = 12
	}
	rng := exec.NewRoot(cfg.Seed).Stream("exp.profile")
	actions := core.NewActionSpace(w)
	grid := []VarianceState{{RSSIW: -55, RSSIP: -55}}
	if cfg.WithVariance {
		grid = VarianceGrid()
	}
	var out []predict.Sample
	for _, m := range cfg.Models {
		mask := actions.Mask(m)
		var feasible []int
		for i, ok := range mask {
			if ok {
				feasible = append(feasible, i)
			}
		}
		if len(feasible) == 0 {
			return nil, fmt.Errorf("exp: no feasible action for %s", m.Name)
		}
		for _, vs := range grid {
			for k := 0; k < cfg.ActionsPerState; k++ {
				c := vs.Conditions(rng)
				a := feasible[rng.Intn(len(feasible))]
				meas, err := w.ExecuteCtx(nil, m, actions.Target(a), c)
				if err != nil {
					return nil, err
				}
				out = append(out, predict.Sample{
					X:       featuresOf(m, c),
					Action:  a,
					EnergyJ: meas.EnergyJ, LatencyS: meas.LatencyS,
				})
			}
		}
	}
	return out, nil
}

// BuildLabels computes the oracle-optimal action over conditions drawn from
// the continuous runtime-variance distribution — the classification
// approaches' training labels. The continuous draw (rather than the clean
// variance-grid representatives) mirrors real profiling and is what leaves
// the boundary regions, where mispredictions are costly, imperfectly
// covered (Section III-C).
func BuildLabels(w *sim.World, cfg ProfileConfig) ([]predict.LabeledState, error) {
	rng := exec.NewRoot(cfg.Seed).Stream("exp.labels")
	actions := core.NewActionSpace(w)
	samplesPerModel := 64
	var out []predict.LabeledState
	for _, m := range cfg.Models {
		qos := sim.QoSFor(m.Task == dnn.Translation, cfg.Intensity)
		for i := 0; i < samplesPerModel; i++ {
			c := sim.Conditions{
				Load: interfere.Load{
					CPUUtil: rng.Float64(),
					MemUtil: rng.Float64(),
				},
				RSSIWLAN: -95 + 55*rng.Float64(),
				RSSIP2P:  -95 + 55*rng.Float64(),
			}
			t, _, err := w.BestTarget(m, c, qos, cfg.Accuracy)
			if err != nil {
				return nil, err
			}
			idx := actions.Index(t)
			if idx < 0 {
				return nil, fmt.Errorf("exp: oracle target %v not in action space", t)
			}
			out = append(out, predict.LabeledState{X: featuresOf(m, c), Action: idx})
		}
	}
	return out, nil
}

// logRegressor fits targets in log space: energy and latency span three
// orders of magnitude across the action space, so a linear (or kernel)
// model in raw units would be dominated by the heavy tail. Predictions are
// exponentiated back.
type logRegressor struct {
	inner predict.Regressor
}

// Predict implements predict.Regressor.
func (l logRegressor) Predict(x []float64) float64 {
	return math.Exp(l.inner.Predict(x))
}

func logTargets(ys []float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		if y < 1e-9 {
			y = 1e-9
		}
		out[i] = math.Log(y)
	}
	return out
}

// RegressionPolicy chooses actions by predicting energy and latency for
// every feasible action and picking by sim.Choice over the predictions: the
// predicted-cheapest QoS-satisfier, else the predicted-fastest.
type RegressionPolicy struct {
	Label     string
	World     *sim.World
	Actions   *core.ActionSpace
	Energy    predict.Regressor
	Latency   predict.Regressor
	Intensity sim.Intensity
}

// Name implements Policy.
func (p *RegressionPolicy) Name() string { return p.Label }

// RunCtx implements sched.Policy.
func (p *RegressionPolicy) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	x := featuresOf(m, c)
	ch := sim.Choice{QoSS: sim.QoSFor(m.Task == dnn.Translation, p.Intensity)}
	for i, ok := range p.Actions.Mask(m) {
		if !ok {
			continue
		}
		xa := append(append([]float64(nil), x...), oneHot(i, p.Actions.Len())...)
		ch.Offer(i, sim.Measurement{EnergyJ: p.Energy.Predict(xa), LatencyS: p.Latency.Predict(xa)})
	}
	best, _, ok := ch.Result()
	if !ok {
		return sim.Measurement{}, fmt.Errorf("exp: %s found no action for %s", p.Label, m.Name)
	}
	return p.World.ExecuteCtx(ctx, m, p.Actions.Target(best), c)
}

func oneHot(i, n int) []float64 {
	v := make([]float64, n)
	if i >= 0 && i < n {
		v[i] = 1
	}
	return v
}

// ClassifierPolicy chooses actions with a trained classifier.
type ClassifierPolicy struct {
	Label   string
	World   *sim.World
	Actions *core.ActionSpace
	Clf     predict.Classifier
}

// Name implements Policy.
func (p *ClassifierPolicy) Name() string { return p.Label }

// RunCtx implements sched.Policy.
func (p *ClassifierPolicy) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	idx := p.Clf.Classify(featuresOf(m, c), p.Actions.Mask(m))
	if idx < 0 {
		return sim.Measurement{}, fmt.Errorf("exp: classifier found no action for %s", m.Name)
	}
	return p.World.ExecuteCtx(ctx, m, p.Actions.Target(idx), c)
}

// NewLRPolicy trains the linear-regression approach of Section III-C.
func NewLRPolicy(w *sim.World, data []predict.Sample, intensity sim.Intensity) (*RegressionPolicy, error) {
	actions := core.NewActionSpace(w)
	xe, ye, err := predict.EncodeSamples(data, actions.Len(), true)
	if err != nil {
		return nil, err
	}
	energy, err := predict.FitLinearRegression(xe, logTargets(ye), 1e-3)
	if err != nil {
		return nil, err
	}
	xl, yl, err := predict.EncodeSamples(data, actions.Len(), false)
	if err != nil {
		return nil, err
	}
	latency, err := predict.FitLinearRegression(xl, logTargets(yl), 1e-3)
	if err != nil {
		return nil, err
	}
	return &RegressionPolicy{Label: "LR", World: w, Actions: actions,
		Energy: logRegressor{energy}, Latency: logRegressor{latency}, Intensity: intensity}, nil
}

// NewSVRPolicy trains the support-vector-regression approach.
func NewSVRPolicy(w *sim.World, data []predict.Sample, intensity sim.Intensity) (*RegressionPolicy, error) {
	actions := core.NewActionSpace(w)
	xe, ye, err := predict.EncodeSamples(data, actions.Len(), true)
	if err != nil {
		return nil, err
	}
	cfg := predict.DefaultSVRConfig()
	cfg.Epsilon = 0.02 // log-space tube
	energy, err := predict.FitSVR(xe, logTargets(ye), cfg)
	if err != nil {
		return nil, err
	}
	xl, yl, err := predict.EncodeSamples(data, actions.Len(), false)
	if err != nil {
		return nil, err
	}
	latency, err := predict.FitSVR(xl, logTargets(yl), cfg)
	if err != nil {
		return nil, err
	}
	return &RegressionPolicy{Label: "SVR", World: w, Actions: actions,
		Energy: logRegressor{energy}, Latency: logRegressor{latency}, Intensity: intensity}, nil
}

// NewSVMPolicy trains the SVM classification approach.
func NewSVMPolicy(w *sim.World, labels []predict.LabeledState) (*ClassifierPolicy, error) {
	actions := core.NewActionSpace(w)
	clf, err := predict.FitSVM(labels, actions.Len(), predict.DefaultSVMConfig())
	if err != nil {
		return nil, err
	}
	return &ClassifierPolicy{Label: "SVM", World: w, Actions: actions, Clf: clf}, nil
}

// NewKNNPolicy trains the k-nearest-neighbour classification approach.
func NewKNNPolicy(w *sim.World, labels []predict.LabeledState, k int) (*ClassifierPolicy, error) {
	actions := core.NewActionSpace(w)
	clf, err := predict.FitKNN(labels, k)
	if err != nil {
		return nil, err
	}
	return &ClassifierPolicy{Label: "KNN", World: w, Actions: actions, Clf: clf}, nil
}

// NewBOPolicy builds the Bayesian-optimization approach: starting from the
// profiled seed set, it acquires extra samples by expected improvement
// (minimizing energy), then fits Gaussian-process estimators for energy and
// latency used at runtime exactly like the regression policies.
func NewBOPolicy(w *sim.World, seed []predict.Sample, acquisitions int, cfgSeed int64, intensity sim.Intensity) (*RegressionPolicy, error) {
	actions := core.NewActionSpace(w)
	rng := exec.NewRoot(cfgSeed).Stream("exp.bo")
	data := append([]predict.Sample(nil), seed...)
	models := dnn.Zoo()
	grid := VarianceGrid()

	gpCfg := predict.DefaultGPConfig()
	gpCfg.Seed = cfgSeed
	var energyGP *predict.GP
	refit := func() error {
		xe, ye, err := predict.EncodeSamples(data, actions.Len(), true)
		if err != nil {
			return err
		}
		energyGP, err = predict.FitGP(xe, logTargets(ye), gpCfg)
		return err
	}
	if err := refit(); err != nil {
		return nil, err
	}
	incumbentE := data[0].EnergyJ
	for _, s := range data {
		if s.EnergyJ < incumbentE {
			incumbentE = s.EnergyJ
		}
	}
	const candidates = 24
	for it := 0; it < acquisitions; it++ {
		var bestX []float64
		var bestModel *dnn.Model
		var bestAction int
		var bestCond sim.Conditions
		bestEI := -1.0
		for c := 0; c < candidates; c++ {
			m := models[rng.Intn(len(models))]
			vs := grid[rng.Intn(len(grid))]
			cond := vs.Conditions(rng)
			mask := actions.Mask(m)
			a := rng.Intn(actions.Len())
			for !mask[a] {
				a = rng.Intn(actions.Len())
			}
			x := featuresOf(m, cond)
			xa := append(append([]float64(nil), x...), oneHot(a, actions.Len())...)
			ei := energyGP.ExpectedImprovement(xa, math.Log(incumbentE))
			if ei > bestEI {
				bestEI, bestX, bestModel, bestAction, bestCond = ei, x, m, a, cond
			}
		}
		meas, err := w.ExecuteCtx(nil, bestModel, actions.Target(bestAction), bestCond)
		if err != nil {
			return nil, err
		}
		data = append(data, predict.Sample{X: bestX, Action: bestAction,
			EnergyJ: meas.EnergyJ, LatencyS: meas.LatencyS})
		if meas.EnergyJ < incumbentE {
			incumbentE = meas.EnergyJ
		}
		if (it+1)%50 == 0 {
			if err := refit(); err != nil {
				return nil, err
			}
		}
	}
	if err := refit(); err != nil {
		return nil, err
	}
	xl, yl, err := predict.EncodeSamples(data, actions.Len(), false)
	if err != nil {
		return nil, err
	}
	latencyGP, err := predict.FitGP(xl, logTargets(yl), gpCfg)
	if err != nil {
		return nil, err
	}
	return &RegressionPolicy{Label: "BO", World: w, Actions: actions,
		Energy: logRegressor{energyGP}, Latency: logRegressor{latencyGP}, Intensity: intensity}, nil
}

// RegressorMAPE evaluates a fitted energy estimator against fresh ground
// truth: for every model and variance state it predicts the energy of
// randomly drawn feasible actions and compares with the noise-free
// expectation, returning the mean absolute percentage error (percent).
func RegressorMAPE(w *sim.World, reg predict.Regressor, models []*dnn.Model, withVariance bool, runs int, seed int64) (float64, error) {
	rng := exec.NewRoot(seed).Stream("exp.mape")
	actions := core.NewActionSpace(w)
	grid := []VarianceState{{RSSIW: -55, RSSIP: -55}}
	if withVariance {
		grid = VarianceGrid()
	}
	var actual, pred []float64
	for _, m := range models {
		mask := actions.Mask(m)
		var feasible []int
		for i, ok := range mask {
			if ok {
				feasible = append(feasible, i)
			}
		}
		for i := 0; i < runs; i++ {
			vs := grid[rng.Intn(len(grid))]
			c := vs.Conditions(rng)
			a := feasible[rng.Intn(len(feasible))]
			meas, err := w.Expected(m, actions.Target(a), c)
			if err != nil {
				return 0, err
			}
			x := append(featuresOf(m, c), oneHot(a, actions.Len())...)
			actual = append(actual, meas.EnergyJ)
			pred = append(pred, reg.Predict(x))
		}
	}
	return mapeOf(actual, pred)
}

// ClassifierMisrate evaluates a classifier's mis-classification ratio
// against the Opt oracle over fresh variance-grid states.
func ClassifierMisrate(w *sim.World, clf predict.Classifier, models []*dnn.Model, intensity sim.Intensity, runs int, seed int64) (float64, error) {
	rng := exec.NewRoot(seed).Stream("exp.misrate")
	actions := core.NewActionSpace(w)
	grid := VarianceGrid()
	var mis, total int
	for _, m := range models {
		qos := sim.QoSFor(m.Task == dnn.Translation, intensity)
		mask := actions.Mask(m)
		for i := 0; i < runs; i++ {
			vs := grid[rng.Intn(len(grid))]
			c := vs.Conditions(rng)
			opt, optMeas, err := w.BestTarget(m, c, qos, 0)
			if err != nil {
				return 0, err
			}
			got := clf.Classify(featuresOf(m, c), mask)
			total++
			if got < 0 {
				mis++
				continue
			}
			if actions.Target(got) == opt {
				continue
			}
			meas, err := w.Expected(m, actions.Target(got), c)
			if err != nil {
				return 0, err
			}
			// Count as correct when the chosen target is within 1% of
			// the oracle's energy (the paper's tie criterion).
			if optMeas.EnergyJ > 0 && meas.EnergyJ <= optMeas.EnergyJ*1.01 && meas.LatencyS <= qos {
				continue
			}
			mis++
		}
	}
	return float64(mis) / float64(total), nil
}

func mapeOf(actual, pred []float64) (float64, error) {
	if len(actual) == 0 {
		return 0, fmt.Errorf("exp: no MAPE samples")
	}
	var sum float64
	var n int
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		d := (pred[i] - actual[i]) / actual[i]
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	return sum / float64(n) * 100, nil
}
