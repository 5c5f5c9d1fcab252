package exp

import (
	"fmt"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// Figs 9-12 are comparison grids (see compare): each states its lineup of
// policies per variant, and every (variant, policy) cell builds its own
// world and, for AutoScale, its own forks of the pass's leave-one-out
// families, so each result is independent of scheduling.

// newLOO builds the standard leave-one-out AutoScale policy for a world.
// With share, the policy takes its family from the pass's memo, so every
// cell of the pass with the same device, configuration and training set
// trains it once. Share only a world left exactly as sim.NewWorld built it:
// the memo key sees the device, not edits to the world.
func newLOO(w *sim.World, opts Options, intensity sim.Intensity, accuracy float64, share bool) *LeaveOneOutAutoScale {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.RL.Seed = opts.Seed + 100
	p := &LeaveOneOutAutoScale{
		World:  w,
		Config: cfg,
		Train: TrainConfig{
			Models:       dnn.Zoo(),
			RunsPerState: opts.TrainRuns,
			Intensity:    intensity,
			Accuracy:     accuracy,
			Seed:         opts.Seed + 200,
		},
	}
	if share {
		p.pass = &opts
	}
	return p
}

// beforeOpt inserts policies into a Baselines lineup ahead of its last
// entry, Opt.
func beforeOpt(b []sched.Policy, ps ...sched.Policy) []sched.Policy {
	opt := b[len(b)-1]
	return append(append(b[:len(b)-1], ps...), opt)
}

// evalConfig is the evaluation every comparison starts from: the zoo over
// envIDs, non-streaming, no accuracy target, seeded Seed+10.
func (o Options) evalConfig(envIDs []string) EvalConfig {
	return EvalConfig{Models: dnn.Zoo(), EnvIDs: envIDs, Runs: o.Runs, Seed: o.Seed + 10, WarmupRuns: o.Warmup}
}

// Fig9 reproduces Fig 9: average normalized energy efficiency and QoS
// violation ratio of AutoScale against the four baselines, MOSAIC and
// NeuroSurgeon, and Opt, per device, in the static environments
// (non-streaming scenario).
func Fig9(opts Options) (*Table, error) {
	return figBaselines("fig9", sim.NonStreaming, opts)
}

// Fig10 reproduces Fig 10: the same comparison under the streaming scenario
// (30 FPS frame budget) where inference intensity rises.
func Fig10(opts Options) (*Table, error) {
	return figBaselines("fig10", sim.Streaming, opts)
}

func figBaselines(id string, intensity sim.Intensity, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("AutoScale vs baselines and prior work, static environments (%s)", intensity),
		Columns: []string{"Device", "Policy", "PPW (vs Edge CPU)", "QoS violation"},
	}
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)
	results, err := compare(opts, len(soc.Phones()), func(di int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Phones()[di], opts.Seed+int64(di))
		lineup := beforeOpt(Baselines(w, intensity, 0), &sched.MOSAIC{World: w},
			&sched.NeuroSurgeon{World: w, Intensity: intensity}, newLOO(w, opts, intensity, 0, true))
		cfg := opts.evalConfig(envs)
		cfg.Intensity, cfg.Seed = intensity, cfg.Seed+int64(di)
		return lineup, cfg
	})
	if err != nil {
		return nil, err
	}
	for di, dev := range soc.Phones() {
		for _, r := range results[di] {
			t.AddRow(dev.Name, r.Policy, r.MeanNormPPW(results[di][0], cells), r.MeanQoSViolation(cells))
		}
	}
	t.Notes = append(t.Notes,
		"paper (non-streaming): AutoScale improves 9.8x/2.3x/1.6x/2.7x over Edge CPU/Edge Best/"+
			"Cloud/Connected Edge, 1.9x over MOSAIC, 1.2x over NeuroSurgeon, within 3.2% of Opt")
	return t, nil
}

// Fig11 reproduces Fig 11: per-environment (S1-S5, D1-D4) normalized PPW and
// QoS violation ratio of AutoScale against the baselines and Opt.
func Fig11(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig11",
		Title:   "Adaptability to stochastic variance per environment (Mi8Pro)",
		Columns: []string{"Env", "Policy", "PPW (vs Edge CPU)", "QoS violation"},
	}
	models := dnn.Zoo()
	results, err := compare(opts, 1, func(int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		return beforeOpt(Baselines(w, sim.NonStreaming, 0), newLOO(w, opts, sim.NonStreaming, 0, true)),
			opts.evalConfig(sim.AllEnvIDs())
	})
	if err != nil {
		return nil, err
	}
	for _, env := range sim.AllEnvIDs() {
		cells := Cells(models, []string{env})
		for _, r := range results[0] {
			t.AddRow(env, r.Policy, r.MeanNormPPW(results[0][0], cells), r.MeanQoSViolation(cells))
		}
	}
	t.Notes = append(t.Notes,
		"paper: across environments AutoScale improves 10.7x/2.2x/1.4x/3.2x over "+
			"Edge CPU/Edge Best/Cloud/Connected Edge with a QoS violation ratio similar to Opt")
	return t, nil
}

// Fig12 reproduces Fig 12: AutoScale under different inference accuracy
// targets (none, 50%, 65%, 70%).
func Fig12(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig12",
		Title:   "Adaptability to inference quality targets (Mi8Pro)",
		Columns: []string{"Accuracy target", "Policy", "PPW (vs Edge CPU)", "QoS violation"},
	}
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)
	accs := []float64{0, 50, 65, 70}
	results, err := compare(opts, len(accs), func(ai int) ([]sched.Policy, EvalConfig) {
		acc := accs[ai]
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		cfg := opts.evalConfig(envs)
		cfg.Accuracy = acc
		return []sched.Policy{sched.EdgeCPU{World: w}, newLOO(w, opts, sim.NonStreaming, acc, true),
			sched.Opt{World: w, Accuracy: acc}}, cfg
	})
	if err != nil {
		return nil, err
	}
	for ai, acc := range accs {
		label := "none"
		if acc > 0 {
			label = fmt.Sprintf("%.0f%%", acc)
		}
		for _, r := range results[ai][1:] {
			t.AddRow(label, r.Policy, r.MeanNormPPW(results[ai][0], cells), r.MeanQoSViolation(cells))
		}
	}
	t.Notes = append(t.Notes,
		"paper: higher accuracy targets forbid low-precision on-device targets, slightly "+
			"degrading PPW and QoS; below 50% the optimum no longer changes")
	return t, nil
}

// Fig13 reproduces Fig 13: the execution-location decision breakdown of
// AutoScale versus Opt per device, AutoScale's prediction accuracy, and the
// S4/D2 drill-downs quoted in the text. One cell per device: the scopes
// share the device's leave-one-out engines (which keep adapting online
// across scopes), so they stay sequential inside the cell.
func Fig13(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig13",
		Title:   "Decision breakdown and prediction accuracy",
		Columns: []string{"Device", "Scope", "Policy", "local", "connected", "cloud", "Pred acc (%)"},
	}
	models := dnn.Zoo()
	numDevices := len(soc.Phones())
	rowsPerDevice, err := runCells(opts, numDevices, func(i int) ([][]interface{}, error) {
		dev := soc.Phones()[i]
		w := sim.NewWorld(dev, opts.Seed+int64(i))
		loo := newLOO(w, opts, sim.NonStreaming, 0, true)
		scopes := []struct {
			label string
			envs  []string
		}{
			{"static", sim.StaticEnvIDs()},
			{"S4", []string{sim.EnvS4}},
			{"D2", []string{sim.EnvD2}},
		}
		var rows [][]interface{}
		for _, sc := range scopes {
			if dev.Name != "Mi8Pro" && sc.label != "static" {
				continue // the paper's drill-downs are single-device
			}
			cfg := EvalConfig{Models: models, EnvIDs: sc.envs, Runs: opts.Runs,
				Seed: opts.Seed + 20 + int64(i), WarmupRuns: opts.Warmup}
			asRes, err := EvaluatePolicy(loo, cfg)
			if err != nil {
				return nil, err
			}
			optRes, err := EvaluatePolicy(sched.Opt{World: w}, cfg)
			if err != nil {
				return nil, err
			}
			acc, err := predictionAccuracy(w, loo, models, sc.envs, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []interface{}{dev.Name, sc.label, "AutoScale",
				share(asRes, sim.Local), share(asRes, sim.Connected), share(asRes, sim.Cloud), acc * 100})
			rows = append(rows, []interface{}{dev.Name, sc.label, "Opt",
				share(optRes, sim.Local), share(optRes, sim.Connected), share(optRes, sim.Cloud), "-"})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsPerDevice {
		for _, row := range rows {
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"paper: 97.9% average prediction accuracy; under weak Wi-Fi (S4) AutoScale selects "+
			"on-device 69.1% / connected 30.7% / cloud 0.2%; with a web browser (D2) cloud 46.1% / "+
			"connected 35.3% / on-device 18.6%")
	return t, nil
}

func share(r Result, loc sim.Location) float64 {
	if r.Inferences == 0 {
		return 0
	}
	return float64(r.Decisions[loc]) / float64(r.Inferences)
}

// predictionAccuracy compares the engine's greedy decision with Opt over
// fresh samples at the granularity Fig 13 plots — the execution target
// (location, engine, precision), not the exact DVFS step: a prediction is
// correct when it picks the oracle's engine, or a different engine within
// 10% of the oracle's energy while satisfying QoS. (The paper counts
// mis-predictions only when the energy difference exceeds 1%; its Renergy
// estimator resolves finer differences than ours, so the tolerance here
// matches the simulator's own noise floor — measurement noise plus the 7.3%
// estimator MAPE.)
func predictionAccuracy(w *sim.World, loo *LeaveOneOutAutoScale, models []*dnn.Model, envIDs []string, opts Options) (float64, error) {
	var correct, total int
	for _, m := range models {
		e, err := loo.EngineFor(m)
		if err != nil {
			return 0, err
		}
		qos := sim.QoSFor(m.Task == dnn.Translation, sim.NonStreaming)
		for _, envID := range envIDs {
			env, err := sim.NewEnvironment(envID, opts.Seed+300)
			if err != nil {
				return 0, err
			}
			for i := 0; i < opts.Runs/2+1; i++ {
				c := env.Sample()
				pred, err := e.Predict(m, c)
				if err != nil {
					return 0, err
				}
				opt, optMeas, err := w.BestTarget(m, c, qos, 0)
				if err != nil {
					return 0, err
				}
				total++
				if pred.SameEngine(opt) {
					correct++
					continue
				}
				meas, err := w.Expected(m, pred, c)
				if err != nil {
					return 0, err
				}
				if optMeas.EnergyJ > 0 && meas.EnergyJ <= optMeas.EnergyJ*1.10 && meas.LatencyS <= qos*1.05 {
					correct++
				}
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("exp: no prediction samples")
	}
	return float64(correct) / float64(total), nil
}
