package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/soc"
)

// workload is one benchmark scenario. run makes one pass — set-up, timed
// phase, output checks — and returns its report; traced selects the traced
// variant of the pass (spans recorded, set-up measured once).
type workload struct {
	name string
	run  func(p params, traced bool) (*report, error)
}

var workloads = []workload{
	{"engine_train", runEngineTrain},
	{"gateway_frozen", runGatewayFrozen},
	{"router_closed", runRouterClosed},
	{"router_open", runRouterOpen},
	{"fleet_chaos", runFleetChaos},
	{"exp_figs", runExpFigs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timedRounds splits every op-count workload's timed phase into rounds of
// about a quarter of a second, so the host-speed metrics are a robust
// statistic over rounds rather than one long interval (see quietQuartile).
const timedRounds = 40

// setupReps is how many times set-up runs so setup_s is a median; the
// traced pass and the scaled-down test runs need the instance, not the
// statistic.
func (p params) setupReps(traced bool) int {
	if traced || p.shrink > 1 {
		return 1
	}
	return 5
}

// repeatSetup runs build reps times, timing each. The first instance drives
// the timed phase; the others go straight to drop (nil: nothing to release),
// so they hold neither heap nor goroutines while the clock runs.
func repeatSetup[T any](reps int, build func(rep int) (T, error), drop func(T)) (first T, secs []float64, err error) {
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return first, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		switch {
		case i == 0:
			first = v
		case drop != nil:
			drop(v)
		}
	}
	return first, secs, nil
}

// --- engine_train -----------------------------------------------------------

// engineReplaySteps is how many leading timed steps the fresh-engine replay
// check repeats.
const engineReplaySteps = 100_000

func runEngineTrain(p params, traced bool) (*report, error) {
	r := newReport("engine_train")
	ring, err := makeRing(p.seed, 0, false)
	if err != nil {
		return nil, err
	}
	warm := p.ops(20_000, 1)
	build := func(int) (*core.Engine, error) {
		e, err := newEngine(soc.Mi8Pro(), p.seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < warm; i++ {
			if _, err := e.RunInferenceCtx(nil, ring[i%ringSize].Model, ring[i%ringSize].Conditions); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	e, setups, err := repeatSetup(p.setupReps(traced), build, nil)
	if err != nil {
		return nil, err
	}
	// The replay check needs a second engine in the exact post-warm-up state.
	spare, err := build(0)
	if err != nil {
		return nil, err
	}

	steps := p.ops(400_000, timedRounds)
	replay := min(engineReplaySteps, steps)
	t := newTally(steps)
	var sb *spanBuf
	if traced {
		sb = newSpanBuf(time.Now(), 0)
	}
	var atReplay simTally
	walls := make([]time.Duration, timedRounds)
	each := steps / timedRounds
	m0 := mallocs()
	for round := range walls {
		start := time.Now()
		prev := start
		for i := round * each; i < (round+1)*each; i++ {
			req := &ring[i%ringSize]
			d, err := e.RunInferenceCtx(nil, req.Model, req.Conditions)
			now := time.Now()
			if err != nil {
				r.Failed++
				t.op(now.Sub(prev), nil)
			} else {
				t.op(now.Sub(prev), &d)
			}
			if sb != nil {
				sb.add(0, "core.step", uint32(i), prev, now, 0)
			}
			prev = now
			if i == replay-1 {
				atReplay = t.sim
				atReplay.latS = slices.Clone(t.sim.latS)
			}
		}
		walls[round] = time.Since(start)
		t.endRound()
	}
	r.set("allocs_per_op", float64(mallocs()-m0)/float64(steps))

	// Determinism check: a fresh engine given the same stream must take the
	// same decisions and measure the same joules, to the bit.
	var again simTally
	for i := 0; i < replay; i++ {
		d, err := spare.RunInferenceCtx(nil, ring[i%ringSize].Model, ring[i%ringSize].Conditions)
		if err != nil {
			r.failf("replay step %d: %v", i, err)
			break
		}
		again.add(&d.Measurement, d.QoSViolated)
	}
	if !again.equal(&atReplay) {
		r.failf("replay of the first %d steps diverged: %d inferences %.9g J %d QoS misses, first run %d, %.9g J, %d",
			replay, again.n, again.energyJ, again.qosMiss, atReplay.n, atReplay.energyJ, atReplay.qosMiss)
	}

	h := e.Health()
	r.set("rl.explore_ratio", h.ExplorationRatio)
	r.set("rl.states_seen", float64(h.States))
	r.set("rl.td_error_ema", h.TDErrorEMA)
	if sb != nil {
		if err := writeSpans(p.outDir, r.Workload, sb); err != nil {
			return nil, err
		}
	}
	r.endToEnd([]*tally{t}, walls, setups)
	r.heap(e)
	return r, nil
}

// --- serving workloads ------------------------------------------------------

// fleetHealth averages the learning-health gauges over a fleet's engines.
func (r *report) fleetHealth(health map[string]core.Health) {
	if len(health) == 0 {
		return
	}
	var explore, td, states float64
	for _, h := range health {
		explore += h.ExplorationRatio
		td += h.TDErrorEMA
		states += float64(h.States)
	}
	n := float64(len(health))
	r.set("rl.explore_ratio", explore/n)
	r.set("rl.td_error_ema", td/n)
	r.set("rl.states_seen", states)
}

// serveCounts copies the serving-layer counters of a (merged) snapshot and
// asserts its exactly-once accounting.
func (r *report) serveCounts(s metrics.Snapshot, sent int64) {
	r.checkConservation("gateway", s.Submitted, s.Served, s.Shed, s.Expired, s.Failed, sent)
	r.set("serve.shed", float64(s.Shed))
	r.set("serve.expired", float64(s.Expired))
	r.set("serve.failed", float64(s.Failed))
	r.set("serve.retries", float64(s.OffloadRetries))
	r.set("serve.hedges", float64(s.Hedges))
	r.set("serve.breaker_opens", float64(s.BreakerOpens))
	r.set("serve.degraded_s", s.DegradedSeconds)
	r.set("serve.queue_max_depth", float64(s.QueueMaxDepth))
	r.set("sim.outages", float64(s.Outages))
	r.set("sim.wasted_j", s.OutageWastedJ)
}

func (r *report) routerCounts(m router.RouterSnapshot, sent int64) {
	r.checkRouterConservation(m, sent)
	r.set("router.dispatched", float64(m.Dispatched))
	r.set("router.shed", float64(m.Shed))
	r.set("router.failovers", float64(m.Failovers))
	r.set("router.rehomed", float64(m.RehomedDevices))
}

// outsideSpans turns the traced pass's per-request breakdown into the
// outside-in layer metrics and writes the spans out.
func (r *report) outsideSpans(p params, tp *tracePass) error {
	if tp == nil {
		return nil
	}
	us := func(parts [][]int32, q float64) float64 { return float64(percentile(mergeSorted(parts...), q)) / 1e3 }
	r.set("router.dispatch_us_p50", us(tp.dispatch, 0.50))
	r.set("router.dispatch_us_p99", us(tp.dispatch, 0.99))
	r.set("serve.queue_wait_us_p50", us(tp.queue, 0.50))
	r.set("serve.queue_wait_us_p99", us(tp.queue, 0.99))
	r.set("serve.service_us_p50", us(tp.service, 0.50))
	r.set("router.return_us_p50", us(tp.ret, 0.50))
	r.set("router.return_us_p99", us(tp.ret, 0.99))
	return writeSpans(p.outDir, r.Workload, tp.bufs...)
}

// failUnserved counts every non-served request as a failed operation: these
// workloads inject no faults and never fill a queue, so anything but
// "served" is wrong.
func (r *report) failUnserved(tallies []*tally) {
	for _, t := range tallies {
		r.Failed += t.attempted - t.ok
	}
	if r.Failed > 0 {
		r.failf("%d requests were not served on a fault-free workload", r.Failed)
	}
}

func newTallies(clients, perClient int) []*tally {
	out := make([]*tally, clients)
	for i := range out {
		out[i] = newTally(perClient)
	}
	return out
}

func runGatewayFrozen(p params, traced bool) (*report, error) {
	r := newReport("gateway_frozen")
	clients := loadClients()
	rings, err := makeRings(p.seed, clients, false)
	if err != nil {
		return nil, err
	}
	// Each engine learns on 25k requests of a client's own stream, then
	// freezes: the paper's post-convergence deployment.
	warm := p.ops(2_500, 1)
	gw, setups, err := repeatSetup(p.setupReps(traced), func(int) (*serve.Gateway, error) {
		gw, engines, err := buildGateway(p.seed, serve.Config{}, rings, warm)
		if err != nil {
			return nil, err
		}
		for _, e := range engines {
			e.Freeze()
		}
		return gw, nil
	}, func(gw *serve.Gateway) { gw.Shutdown(context.Background()) })
	if err != nil {
		return nil, err
	}
	defer gw.Shutdown(context.Background())

	total := p.ops(250_000, timedRounds*clients)
	tallies := newTallies(clients, total/clients)
	var tp *tracePass
	if traced {
		tp = newTracePass(clients, total/clients)
	}
	m0 := mallocs()
	walls := closedLoop(gw.Do, rings, tallies, timedRounds, total/timedRounds, tp)
	allocs := float64(mallocs()-m0) / float64(total)
	r.set("allocs_per_op", allocs)
	r.set("serve.allocs_per_req", allocs)

	r.serveCounts(gw.Snapshot(), int64(stackWarm+total))
	r.fleetHealth(gw.Health())
	r.failUnserved(tallies)
	if err := r.outsideSpans(p, tp); err != nil {
		return nil, err
	}
	r.endToEnd(tallies, walls, setups)
	r.heap(gw)
	return r, nil
}

// routerSetup provisions the four-shard router, each engine warmed on 5k
// requests of the clients' streams; both router workloads share it so they
// differ only in how the load arrives.
func routerSetup(p params, rings [][]serve.Request) func(int) (*router.Router, error) {
	warm := p.ops(500, 1)
	return func(int) (*router.Router, error) { return buildRouter(p.seed, router.Config{}, rings, warm) }
}

func shutdownRouter(rt *router.Router) { rt.Shutdown(context.Background()) }

func runRouterClosed(p params, traced bool) (*report, error) {
	r := newReport("router_closed")
	clients := loadClients()
	rings, err := makeRings(p.seed, clients, true)
	if err != nil {
		return nil, err
	}
	rt, setups, err := repeatSetup(p.setupReps(traced), routerSetup(p, rings), shutdownRouter)
	if err != nil {
		return nil, err
	}
	defer shutdownRouter(rt)

	total := p.ops(120_000, timedRounds*clients)
	tallies := newTallies(clients, total/clients)
	var tp *tracePass
	if traced {
		tp = newTracePass(clients, total/clients)
	}
	m0 := mallocs()
	walls := closedLoop(rt.Do, rings, tallies, timedRounds, total/timedRounds, tp)
	allocs := float64(mallocs()-m0) / float64(total)
	r.set("allocs_per_op", allocs)
	r.set("router.allocs_per_req", allocs)

	r.routerCounts(rt.RouterMetrics(), int64(stackWarm+total))
	r.serveCounts(rt.Snapshot(), int64(stackWarm+total))
	r.fleetHealth(rt.Health())
	r.failUnserved(tallies)
	if err := r.outsideSpans(p, tp); err != nil {
		return nil, err
	}
	r.endToEnd(tallies, walls, setups)
	r.heap(rt)
	return r, nil
}

// openLoopRate is the fixed arrival rate of router_open, requests per
// second: about a seventh of what router_closed sustains on the reference
// box, so the dispatcher and workers park between arrivals.
const openLoopRate = 20_000

// maxGeneratorLagP99 is how late the open-loop generator may run (p99)
// before the run's latencies are declared unresolved.
const maxGeneratorLagP99 = time.Millisecond

func runRouterOpen(p params, traced bool) (*report, error) {
	r := newReport("router_open")
	rings, err := makeRings(p.seed, 1, true)
	if err != nil {
		return nil, err
	}
	ring := rings[0]
	rt, setups, err := repeatSetup(p.setupReps(traced), routerSetup(p, rings), shutdownRouter)
	if err != nil {
		return nil, err
	}
	defer shutdownRouter(rt)

	total := p.ops(openLoopRate, timedRounds)
	due := poissonSchedule(p.seed, total, openLoopRate)
	t := newTally(total)
	lags := make([]int32, 0, total)
	var tp *tracePass
	if traced {
		tp = newTracePass(1, total)
	}
	// A round is the next total/timedRounds requests in send order; it ends
	// when the last of them has completed.
	var walls []time.Duration
	var lastDone time.Time
	m0 := mallocs()
	start := time.Now()
	roundStart := start
	openLoop(time.Now, due,
		func(i int) (<-chan serve.Response, error) { return rt.Submit(ring[i%ringSize]) },
		func(_ int, late time.Duration) { lags = append(lags, clampNS(late)) },
		func(i int, dueAt time.Time, resp serve.Response, err error) {
			if err != nil || resp.Status != serve.StatusServed {
				t.op(0, nil)
			} else {
				t.op(resp.DoneAt.Sub(dueAt), &resp.Decision)
				if resp.DoneAt.After(lastDone) {
					lastDone = resp.DoneAt
				}
				if tp != nil {
					tp.request(0, uint32(i), dueAt, time.Now(), resp.SubmittedAt, resp.DoneAt, resp.WaitS)
				}
			}
			if (i+1)%(total/timedRounds) == 0 {
				t.endRound()
				walls = append(walls, lastDone.Sub(roundStart))
				roundStart = lastDone
			}
		})
	wall := lastDone.Sub(start)
	allocs := float64(mallocs()-m0) / float64(total)
	r.set("allocs_per_op", allocs)
	r.set("router.allocs_per_req", allocs)

	slices.Sort(lags)
	r.set("loadgen.lag_p50_us", float64(percentile(lags, 0.50))/1e3)
	r.set("loadgen.lag_p99_us", float64(percentile(lags, 0.99))/1e3)
	r.set("loadgen.lag_max_us", float64(percentile(lags, 1))/1e3)
	r.set("loadgen.achieved_rate", float64(t.ok)/wall.Seconds())
	if time.Duration(percentile(lags, 0.99)) > maxGeneratorLagP99 {
		r.Unresolved = true
	}
	lat := mergeSorted(t.latUS)
	r.set("router.open_lat_p90_us", float64(percentile(lat, 0.90)))
	r.set("router.open_lat_p99_us", float64(percentile(lat, 0.99)))
	r.set("router.open_lat_max_us", float64(percentile(lat, 1)))

	r.routerCounts(rt.RouterMetrics(), int64(stackWarm+total))
	r.serveCounts(rt.Snapshot(), int64(stackWarm+total))
	r.fleetHealth(rt.Health())
	r.failUnserved([]*tally{t})
	if err := r.outsideSpans(p, tp); err != nil {
		return nil, err
	}
	r.endToEnd([]*tally{t}, walls, setups)
	r.heap(rt)
	return r, nil
}
