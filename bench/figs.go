package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/exp"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// figIDs are the experiments one exp_figs round regenerates.
var figIDs = []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ext-faults", "ext-plan"}

// figSecondsPerRound is what one RunAll pass over figIDs costs at quick
// fidelity on the reference box; the declared run length buys two passes.
const figSecondsPerRound = 5

// recordingPolicy wraps the AutoScale policy so the harness sees every
// measurement exp.EvaluatePolicy draws from it.
type recordingPolicy struct {
	inner *exp.AutoScalePolicy
	qosS  func(*dnn.Model) float64
	t     *tally
}

func (p *recordingPolicy) Name() string { return p.inner.Name() }

func (p *recordingPolicy) Run(m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	return p.RunCtx(nil, m, c)
}

func (p *recordingPolicy) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	meas, err := p.inner.RunCtx(ctx, m, c)
	if err == nil {
		p.t.sim.add(&meas, meas.LatencyS > p.qosS(m))
	}
	return meas, err
}

// evaluateAutoScale is one repetition of exp_figs' set-up: train one
// AutoScale engine with the paper's protocol (trainRuns per model and variance
// state; the paper uses 100) and evaluate it over the zoo in every static
// environment through exp.EvaluatePolicy — the loop under every figure —
// adding the simulated cost of each measured inference to t. What one engine
// converges to varies with its seed (energy by 10%; p95 latency, which sits
// on a cliff between two models, by 50%), so the set-up repetitions each train
// their own engine and pool their outcomes in one tally.
func evaluateAutoScale(t *tally, seed int64, runs, trainRuns int) error {
	e, err := exp.NewTrainedEngine(sim.NewWorld(soc.Mi8Pro(), seed), engineConfig(seed),
		exp.TrainConfig{Models: dnn.Zoo(), RunsPerState: trainRuns, Seed: seed + 200})
	if err != nil {
		return err
	}
	rec := &recordingPolicy{
		inner: &exp.AutoScalePolicy{Engine: e},
		qosS:  func(m *dnn.Model) float64 { return sim.QoSFor(m.Task == dnn.Translation, sim.NonStreaming) },
		t:     t,
	}
	_, err = exp.EvaluatePolicy(rec, exp.EvalConfig{
		Models: dnn.Zoo(), EnvIDs: sim.StaticEnvIDs(), Runs: runs, Seed: seed + 10,
	})
	return err
}

// cell returns the numeric value of column col in the first row of tab whose
// leading cells equal match.
func cell(tab *exp.Table, col int, match ...string) (float64, error) {
rows:
	for _, row := range tab.Rows {
		for i, m := range match {
			if row[i] != m {
				continue rows
			}
		}
		return strconv.ParseFloat(row[col], 64)
	}
	return 0, fmt.Errorf("%s: no row %v", tab.ID, match)
}

// fidelity extracts the paper-comparison numbers from one round's tables.
func (r *report) fidelity(tables map[string]*exp.Table) error {
	var ppw, vsOpt float64
	phones := soc.Phones()
	for _, dev := range phones {
		as, err := cell(tables["fig9"], 2, dev.Name, "AutoScale")
		if err != nil {
			return err
		}
		opt, err := cell(tables["fig9"], 2, dev.Name, "Opt")
		if err != nil {
			return err
		}
		ppw += as
		vsOpt += as / opt
	}
	r.set("ppw_x_edgecpu", ppw/float64(len(phones)))
	r.set("ppw_vs_opt", vsOpt/float64(len(phones)))

	conv, err := cell(tables["fig14"], 3, "Mi8Pro", "scratch", "static")
	if err != nil {
		return err
	}
	r.set("converge_runs", conv)

	var acc float64
	var n int
	for _, row := range tables["fig13"].Rows {
		if row[2] != "AutoScale" {
			continue
		}
		v, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			return fmt.Errorf("fig13 pred acc %q: %w", row[6], err)
		}
		acc += v
		n++
	}
	if n == 0 {
		return fmt.Errorf("fig13: no AutoScale rows")
	}
	r.set("pred_accuracy", acc/float64(n))
	return nil
}

func runExpFigs(p params, traced bool) (*report, error) {
	r := newReport("exp_figs")
	opts := func(round int) exp.Options {
		o := exp.Quick(p.seed + 41 + int64(round))
		if p.shrink > 1 {
			o.Runs, o.TrainRuns, o.Warmup = 2, 2, 2
		}
		return o
	}
	trainRuns := max(1, 100/p.shrink)
	// Four times the figures' per-cell budget, so the latency tail rests on
	// a few thousand inferences per engine.
	evalRuns := 4 * opts(0).Runs
	reps := p.setupReps(traced)
	t := newTally(reps * len(dnn.Zoo()) * len(sim.StaticEnvIDs()) * evalRuns)
	_, setups, err := repeatSetup(reps, func(rep int) (*tally, error) {
		// Engine seeds a prime stride apart, so neighbouring -seed values
		// share no engine.
		return t, evaluateAutoScale(t, p.seed+41+1009*int64(rep), evalRuns, trainRuns)
	}, nil)
	if err != nil {
		return nil, err
	}

	rounds := max(1, int(p.seconds)/figSecondsPerRound)
	if p.shrink > 1 {
		rounds = 1
	}
	parallel := runtime.NumCPU()
	var sb *spanBuf
	if traced {
		sb = newSpanBuf(time.Now(), 0)
	}
	var walls []time.Duration
	var failed int64
	first := make(map[string]*exp.Table)
	m0 := mallocs()
	for round := 0; round < rounds; round++ {
		o := opts(round)
		o.Parallel = parallel
		start := time.Now()
		outcomes := exp.RunAll(figIDs, o)
		end := time.Now()
		walls = append(walls, end.Sub(start))
		var busy time.Duration
		var root uint32
		if sb != nil {
			root = sb.add(0, "exp.run_all", uint32(round), start, end, 0)
		}
		// An operation here is one pass: all eight experiments regenerated.
		passOK := true
		for _, out := range outcomes {
			if out.Err != nil {
				passOK = false
				r.failf("round %d %s: %v", round, out.ID, out.Err)
				continue
			}
			busy += out.Elapsed
			if sb != nil {
				// RunOutcome carries only the busy time, so the span is
				// anchored at the round's start.
				sb.add(root, "exp."+out.ID, uint32(round), start, start.Add(out.Elapsed), 0)
			}
			if round == 0 {
				first[out.ID] = out.Table
				r.set("exp."+out.ID+"_s", out.Elapsed.Seconds())
			}
		}
		t.latUS = append(t.latUS, float32(end.Sub(start).Microseconds()))
		t.attempted++
		if passOK {
			t.ok++
		} else {
			failed++
		}
		t.endRound()
		if round == 0 {
			r.set("exp.pool_busy_ratio", busy.Seconds()/(end.Sub(start).Seconds()*float64(parallel)))
		}
	}
	r.set("allocs_per_op", float64(mallocs()-m0)/float64(t.attempted))
	if failed == 0 {
		if err := r.fidelity(first); err != nil {
			r.failf("fidelity: %v", err)
		}
		// Parallel cells must not change a byte of the output.
		o := opts(0)
		o.Parallel = 1
		serial, err := exp.Run("fig9", o)
		if err != nil {
			r.failf("fig9 at Parallel=1: %v", err)
		} else if serial.String() != first["fig9"].String() {
			r.failf("fig9 renders differently at Parallel=1 and Parallel=%d", parallel)
		}
	}
	if sb != nil {
		if err := writeSpans(p.outDir, r.Workload, sb); err != nil {
			return nil, err
		}
	}

	r.Failed = failed
	r.endToEnd([]*tally{t}, walls, setups)
	// Nothing outlives a round, so this reads the runtime's floor: it moves
	// only if the experiment harness starts retaining memory.
	r.heap(nil)
	return r, nil
}
