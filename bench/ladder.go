package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/obs"
	"autoscale/internal/plan"
	"autoscale/internal/policy"
	"autoscale/internal/router"
	"autoscale/internal/sched"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
	"autoscale/internal/super"
	"autoscale/internal/trace"
	"autoscale/internal/tracez"
)

// The ladder climbs the request path from the inside out on twin instances,
// one goroutine, one request ring: rl calls on pre-computed states, the
// simulated execution, the engine's predict and full step, Gateway.Do (bare,
// with a tracer at three sample rates, with a trace writer) and Router.Do.
// Each rung is the host time of one public call; a layer's self time is its
// rung minus the rungs below it.
//
// Three choices keep the deltas meaningful on a small shared box:
//
//   - A rung is timed in batches of ladderBatch calls, one span per batch,
//     and reports the median batch mean. Two clock reads cost about 50 ns,
//     more than rl.best_ns itself, so per-call spans would measure the clock;
//     and the median drops the batches a neighbour's CPU burst landed on.
//   - The rungs on the request path, whose differences are the layers' self
//     times, take turns batch by batch (timeTogether), and a self time is the
//     median of the per-batch differences.
//   - The ladder runs at GOMAXPROCS(1). With two Ps a single-client
//     Gateway.Do wakes its worker across cores or not, batch by batch
//     (2.4 to 9 us measured), which drowns every self-time delta; on one P
//     the handoff is a direct goroutine switch and repeats within ~10%. What
//     cross-core wake-ups cost shows in the workloads' own latency metrics
//     and outside spans, which run at full GOMAXPROCS.

// ladderCalls is the call count of a sub-microsecond rung at the declared
// run length; slower rungs divide it so every rung costs well under a second.
const ladderCalls = 200_000

// ladderBatch is the number of calls between clock reads.
const ladderBatch = 1024

// rungs records ladder rungs as batch spans and per-call times.
type rungs struct {
	sb *spanBuf
	ns map[string]float64
}

// rung is one timed call.
type rung struct {
	name string
	call func(i int)
}

// batch times calls from..to of one rung as one span and returns the mean
// nanoseconds per call.
func (l *rungs) batch(name string, from, to int, call func(i int)) float64 {
	start := time.Now()
	for i := from; i < to; i++ {
		call(i)
	}
	end := time.Now()
	l.sb.add(0, name, 0, start, end, to-from)
	return float64(end.Sub(start).Nanoseconds()) / float64(to-from)
}

// time runs call(i) n times and records the rung's nanoseconds per call: the
// median over batches of each batch's mean.
func (l *rungs) time(name string, n int, call func(i int)) float64 {
	var means []float64
	for from := 0; from < n; from += ladderBatch {
		means = append(means, l.batch(name, from, min(from+ladderBatch, n), call))
	}
	l.ns[name] = median(means)
	return l.ns[name]
}

// timeTogether times several rungs n calls each, batch by batch in rotation,
// and returns every rung's batch means by name; the caller turns them into
// metrics. The box's speed drifts by a tenth over the seconds a rung takes —
// more than the differences between neighbouring rungs — so rungs that are to
// be subtracted from each other take turns, and their difference is the
// median of the per-batch differences (pairedDelta), not the difference of
// two medians.
func (l *rungs) timeTogether(n int, together []rung) map[string][]float64 {
	means := make(map[string][]float64, len(together))
	for from := 0; from < n; from += ladderBatch {
		for _, rg := range together {
			means[rg.name] = append(means[rg.name], l.batch(rg.name, from, min(from+ladderBatch, n), rg.call))
		}
	}
	return means
}

func pairedDelta(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

func ladder(p params) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := &rungs{sb: newSpanBuf(time.Now(), 0), ns: make(map[string]float64)}
	n := p.ops(ladderCalls/10, 1) // 200k at the declared 10 s
	slow := max(n/10, 1)          // ~20 us calls
	rare := max(n/1000, 20)       // millisecond calls
	rings, err := makeRings(p.seed, 1, true)
	if err != nil {
		return nil, err
	}
	ring := rings[0]
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// A learning engine warmed on the ring, so every ring state has a row.
	e, err := newEngine(soc.Mi8Pro(), p.seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2*ringSize; i++ {
		if _, err := e.RunInferenceCtx(nil, ring[i%ringSize].Model, ring[i%ringSize].Conditions); err != nil {
			return nil, err
		}
	}
	states := make([]int32, ringSize)
	masks := make([][]bool, ringSize)
	for i, req := range ring {
		states[i] = e.States.Index(core.ObservationOf(req.Model, req.Conditions))
		masks[i] = e.Actions.Mask(req.Model)
	}
	ag := e.Agent()

	// rl: select under the writer lock, the TD update, the lock-free argmax.
	actions := make([]int, ringSize)
	path := []rung{
		{"rl.select_ns", func(i int) {
			a, err := ag.SelectActionIdx(states[i%ringSize], masks[i%ringSize])
			note(err)
			actions[i%ringSize] = a
		}},
		// Follows select in the rotation, so actions holds this batch's picks.
		{"rl.update_ns", func(i int) {
			j, k := i%ringSize, (i+1)%ringSize
			note(ag.UpdateIdx(states[j], actions[j], -1, states[k], masks[k]))
		}},
	}
	l.time("rl.best_ns", n, func(i int) {
		_, err := ag.BestActionIdx(states[i%ringSize], masks[i%ringSize])
		note(err)
	})
	var snapshot []byte
	l.time("rl.snapshot_ns", rare, func(int) {
		snapshot, err = ag.Snapshot()
		note(err)
	})

	// sim: one simulated execution on a local and on a cloud target, and the
	// exhaustive Opt search.
	w := sim.NewWorld(soc.Mi8Pro(), p.seed)
	root := exec.NewRoot(p.seed).Child("ladder")
	var ctx exec.Context
	local := make([]sim.Target, ringSize)
	remote := make([]sim.Target, ringSize)
	for i, req := range ring {
		for _, t := range w.Targets(req.Model) {
			if t.Location == sim.Local && local[i] == (sim.Target{}) {
				local[i] = t
			}
			if t.Location == sim.Cloud {
				remote[i] = t
			}
		}
	}
	path = append(path,
		rung{"sim.execute_local_ns", func(i int) {
			root.Rekey(&ctx, "req", uint64(i))
			_, err := w.ExecuteCtx(&ctx, ring[i%ringSize].Model, local[i%ringSize], ring[i%ringSize].Conditions)
			note(err)
		}},
		rung{"sim.execute_remote_ns", func(i int) {
			root.Rekey(&ctx, "req", uint64(i))
			_, err := w.ExecuteCtx(&ctx, ring[i%ringSize].Model, remote[i%ringSize], ring[i%ringSize].Conditions)
			note(err)
		}})
	l.time("sim.best_target_ns", slow, func(i int) {
		_, _, err := w.BestTarget(ring[i%ringSize].Model, ring[i%ringSize].Conditions, sim.QoSNonStreamingS, 0)
		note(err)
	})
	opt := sched.Opt{World: w}
	l.time("sched.opt_run_ns", slow, func(i int) {
		_, err := opt.Run(ring[i%ringSize].Model, ring[i%ringSize].Conditions)
		note(err)
	})
	edgeBest := &sched.EdgeBest{World: w}
	l.time("sched.edgebest_run_ns", n, func(i int) {
		_, err := edgeBest.Run(ring[i%ringSize].Model, ring[i%ringSize].Conditions)
		note(err)
	})

	// core: the pieces of a step, the full step, the frozen predict.
	remoteSteps := make([]int, (n+ladderBatch-1)/ladderBatch)
	path = append(path,
		rung{"core.observe_ns", func(i int) {
			states[i%ringSize] = e.States.Index(core.ObservationOf(ring[i%ringSize].Model, ring[i%ringSize].Conditions))
		}},
		rung{"core.step_ns", func(i int) {
			d, err := e.RunInferenceCtx(nil, ring[i%ringSize].Model, ring[i%ringSize].Conditions)
			note(err)
			if d.Measurement.Target.Location != sim.Local {
				remoteSteps[i/ladderBatch]++
			}
		}})
	var maskBuf []bool
	l.time("core.mask_ns", n, func(i int) {
		e.Actions.MaskWithBuf(ring[i%ringSize].Model, nil, &maskBuf)
	})
	frozen, err := newEngine(soc.Mi8Pro(), p.seed)
	if err != nil {
		return nil, err
	}
	note(frozen.TransferFrom(e))
	frozen.Freeze()
	l.time("core.predict_ns", n, func(i int) {
		_, err := frozen.Predict(ring[i%ringSize].Model, ring[i%ringSize].Conditions)
		note(err)
	})
	l.time("core.transfer_ns", rare, func(i int) {
		fresh, err := newEngine(soc.GalaxyS10e(), p.seed+int64(i))
		note(err)
		if err == nil {
			note(fresh.TransferFrom(e))
		}
	})

	// serve and router: single-client Gateway.Do over the two-device gateway
	// (bare and with each observability attachment) and single-client
	// Router.Do over four shards.
	var gateways []*serve.Gateway
	defer func() {
		for _, gw := range gateways {
			gw.Shutdown(context.Background())
		}
	}()
	tw := trace.NewWriter(io.Discard)
	// The attachment rungs are named for what they report: the rung's cost
	// over the bare Gateway.Do.
	attachments := []string{"tracez.overhead_ns_s0", "tracez.overhead_ns_s001", "tracez.overhead_ns_s1", "trace.writer_overhead_ns"}
	for v, cfg := range []serve.Config{
		{},
		{Tracer: tracez.New(tracez.Config{SampleRate: 0, Seed: p.seed})},
		{Tracer: tracez.New(tracez.Config{SampleRate: 0.01, Seed: p.seed})},
		{Tracer: tracez.New(tracez.Config{SampleRate: 1, Seed: p.seed})},
		{Trace: tw},
	} {
		gw, _, err := buildGateway(p.seed, cfg, rings, ringSize)
		if err != nil {
			return nil, err
		}
		gateways = append(gateways, gw)
		name := "serve.do_ns"
		if v > 0 {
			name = attachments[v-1]
		}
		path = append(path, rung{name, func(i int) {
			_, err := gw.Do(ring[i%ringSize])
			note(err)
		}})
	}
	rt, err := buildRouter(p.seed, router.Config{}, rings, ringSize)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown(context.Background())
	path = append(path, rung{"router.do_ns", func(i int) {
		_, err := rt.Do(ring[i%ringSize])
		note(err)
	}})

	// The request path's rungs climb together; each layer's self time is its
	// rung minus the rungs below it, batch by batch.
	of := l.timeTogether(n, path)
	for _, name := range []string{"rl.select_ns", "rl.update_ns", "sim.execute_local_ns", "sim.execute_remote_ns",
		"core.observe_ns", "core.step_ns", "serve.do_ns", "router.do_ns"} {
		l.ns[name] = median(of[name])
	}
	stepSelf := make([]float64, len(remoteSteps))
	for b := range stepSelf {
		// Mixed by this batch's own share of remote executions.
		share := float64(remoteSteps[b]) / float64(min(ladderBatch, n-b*ladderBatch))
		stepSelf[b] = of["core.step_ns"][b] - of["core.observe_ns"][b] - of["rl.select_ns"][b] - of["rl.update_ns"][b] -
			(share*of["sim.execute_remote_ns"][b] + (1-share)*of["sim.execute_local_ns"][b])
	}
	l.ns["core.step_self_ns"] = median(stepSelf)
	l.ns["serve.self_ns"] = pairedDelta(of["serve.do_ns"], of["core.step_ns"])
	l.ns["router.self_ns"] = pairedDelta(of["router.do_ns"], of["serve.do_ns"])
	for _, name := range attachments {
		l.ns[name] = pairedDelta(of[name], of["serve.do_ns"])
	}
	note(tw.Close())

	// Admission alone on the bare gateway: submit a batch the queues can
	// hold, stop the clock, then drain the responses.
	gw := gateways[0]
	const submitBatch = 128
	chs := make([]<-chan serve.Response, submitBatch)
	var submitMeans []float64
	for from := 0; from < n; from += submitBatch {
		start := time.Now()
		for j := range chs {
			chs[j], err = gw.Submit(ring[(from+j)%ringSize])
			note(err)
		}
		end := time.Now()
		submitMeans = append(submitMeans, float64(end.Sub(start).Nanoseconds())/submitBatch)
		l.sb.add(0, "serve.submit_ns", 0, start, end, submitBatch)
		for _, ch := range chs {
			if ch != nil {
				<-ch
			}
		}
	}
	l.ns["serve.submit_ns"] = median(submitMeans)
	l.time("serve.snapshot_ns", rare*10, func(int) { gw.Snapshot() })

	// The control tiers ticking over the same (idle) router.
	sup, err := super.New(rt, super.Config{IntervalS: 0.25})
	if err != nil {
		return nil, err
	}
	l.time("super.tick_ns", rare*10, func(i int) { sup.MaybeTick(float64(i+1) * 0.25) })
	planner, err := plan.New(rt, plan.Config{Classes: plan.DefaultClasses()})
	if err != nil {
		return nil, err
	}
	l.time("plan.tick_ns", rare*10, func(i int) { planner.MaybeTick(float64(i + 1)) })

	// fault: the injector queries every execution makes under a storm.
	storm := fault.Randomize(p.seed, 0.9, fault.RandomOpts{Devices: chaosLanes, Shards: chaosShardNames, HorizonS: chaosHorizonS})
	inj := fault.New(storm, exec.NewRoot(p.seed).Child("faults"))
	l.time("fault.query_ns", n, func(i int) {
		t := chaosHorizonS * float64(i%ringSize) / ringSize
		inj.Down("cloud", t)
		inj.GrayFactor(chaosLanes[i%len(chaosLanes)], t)
	})

	// obs: one histogram observation.
	hist := obs.NewHistogram(obs.DefaultScheme())
	l.time("obs.hist_observe_ns", n, func(i int) { hist.Observe(float64(i%ringSize) * 1e-5) })

	// policy: checkpoint save, load and merge against a real directory.
	dir, err := os.MkdirTemp(p.outDir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := policy.Open(filepath.Join(dir, "store"), 4)
	if err != nil {
		return nil, err
	}
	ck, err := policy.NewCheckpoint("lane-a0", e.ConfigHash(), snapshot)
	if err != nil {
		return nil, err
	}
	envelope, err := policy.Encode(ck)
	if err != nil {
		return nil, err
	}
	l.ns["policy.envelope_bytes"] = float64(len(envelope))
	l.time("policy.save_ns", rare, func(int) {
		_, err := store.SaveNext(ck)
		note(err)
	})
	l.time("policy.load_ns", rare, func(int) {
		_, err := store.Latest("lane-a0")
		note(err)
	})
	other, err := policy.NewCheckpoint("lane-a1", e.ConfigHash(), snapshot)
	if err != nil {
		return nil, err
	}
	l.time("policy.merge_ns", rare, func(int) {
		_, err := policy.Merge([]*policy.Checkpoint{ck, other})
		note(err)
	})

	if firstErr != nil {
		return nil, firstErr
	}
	return l.ns, writeSpans(p.outDir, "ladder", l.sb)
}
