package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/policy"
	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/soc"
	"autoscale/internal/super"
	"autoscale/internal/tracez"
)

// The chaos fleet mirrors internal/super/soak_test.go: three shards of two
// Mi8Pro lanes each, a Randomize-generated storm mixing every fault kind,
// checkpoint I/O routed through a fault sink, a supervisor and an invariant
// auditor — plus causal tracing at 1% with a flight recorder.
const (
	chaosHorizonS = 6.0
	// chaosMaxRequests is when a storm is given up as wedged: a settling
	// storm needs 600 to 4000 requests; one that has not settled by 8000 has
	// lost every lane of some shard (nothing then advances that shard's
	// clock) and never will.
	chaosMaxRequests = 8_000
	// chaosSettleEvery is how often the driving loop asks whether the fleet
	// has settled. The soak asks before every request; here that question
	// (a full ShardSignals snapshot of every gateway plus the supervisor's
	// status) would be 40% of the storm's host time, and the workload would
	// measure its own stop condition.
	chaosSettleEvery = 32
	chaosTraceSample = 0.01
)

var (
	chaosShards = map[string][]string{
		"shard-a": {"lane-a0", "lane-a1"},
		"shard-b": {"lane-b0", "lane-b1"},
		"shard-c": {"lane-c0", "lane-c1"},
	}
	chaosShardNames = []string{"shard-a", "shard-b", "shard-c"}
	chaosLanes      = []string{"lane-a0", "lane-a1", "lane-b0", "lane-b1", "lane-c0", "lane-c1"}
	chaosIntensity  = []float64{0.4, 0.9}
	// chaosModel is the one network the storm serves, as in the soak: the
	// supervisor's health score (p95 against a 0.1 s target, TD-error EMA) is
	// calibrated to it, and the zoo's heavy models read as permanently sick.
	// The conditions still come from the seeded D2 ring.
	chaosModel = dnn.MustByName("MobileNet v3")
)

// chaosFleet is one storm's supervised fleet.
type chaosFleet struct {
	rt     *router.Router
	store  *policy.Store
	fsink  *policy.FaultSink
	inj    *fault.Injector
	sup    *super.Supervisor
	aud    *super.Auditor
	tracer *tracez.Tracer
	faults int
	dir    string
	vclock atomic.Uint64
}

// buildChaosFleet stands the fleet up in its own scratch directory under
// outDir (the checkpoint store and the flight recorder write there).
func buildChaosFleet(outDir string, seed int64, intensity float64) (*chaosFleet, error) {
	dir, err := os.MkdirTemp(outDir, "chaos-")
	if err != nil {
		return nil, err
	}
	fl := &chaosFleet{dir: dir}
	sched := fault.Randomize(seed, intensity, fault.RandomOpts{
		Devices: chaosLanes, Shards: chaosShardNames, HorizonS: chaosHorizonS,
	})
	fl.faults = len(sched.Faults)
	if fl.store, err = policy.Open(filepath.Join(dir, "store"), 0); err != nil {
		return nil, err
	}
	fl.fsink = &policy.FaultSink{Inner: fl.store}
	fl.inj = fault.New(sched, exec.NewRoot(seed).Child("faults"))
	fl.tracer = tracez.New(tracez.Config{SampleRate: chaosTraceSample, Ring: 256, Seed: seed})
	recorder := tracez.NewFlightRecorder(fl.tracer, filepath.Join(dir, "incidents"), 0, 0)

	laneSeed := make(map[string]int64)
	for i, lane := range chaosLanes {
		laneSeed[lane] = seed + int64(i)
	}
	mkEngine := func(lane string) (*core.Engine, error) { return newEngine(soc.Mi8Pro(), laneSeed[lane]) }
	noSleep := policy.SyncConfig{Sleep: func(time.Duration) {}}
	mkShard := func(name string, lanes []string) (*serve.Gateway, error) {
		var backends []serve.Backend
		for _, lane := range lanes {
			e, err := mkEngine(lane)
			if err != nil {
				return nil, err
			}
			backends = append(backends, serve.Backend{Device: lane, Engine: e})
		}
		return serve.New(backends, serve.Config{
			Name: name, QueueDepth: 256, Checkpoints: fl.fsink, Faults: fl.inj, PolicySync: noSleep,
			Recorder: recorder,
		})
	}
	var gws []router.ShardGateway
	for _, name := range chaosShardNames {
		gw, err := mkShard(name, chaosShards[name])
		if err != nil {
			return nil, err
		}
		gws = append(gws, router.ShardGateway{Name: name, Gateway: gw})
	}
	fl.rt, err = router.New(gws, router.Config{
		Tenants: routerTenants, TenantQueueDepth: 1024,
		Checkpoints: fl.fsink, Faults: fl.inj, PolicySync: noSleep,
		EngineFactory: mkEngine, ShardFactory: mkShard,
		Tracer: fl.tracer, Recorder: recorder,
	})
	if err != nil {
		return nil, err
	}

	// The sink's clock must not call back into the router (its queries fire
	// under the router's lock); the driving loop feeds it sampled time.
	fl.fsink.Now = func() float64 { return math.Float64frombits(fl.vclock.Load()) }
	fl.fsink.Events = recorder.Note
	fl.fsink.Verdict = func(dev string, tm float64) policy.IOVerdict {
		switch fl.inj.CheckpointIO(dev, tm) {
		case fault.IOSlowFsync:
			return policy.IOSlow
		case fault.IOWriteFail:
			return policy.IOFailWrite
		case fault.IODiskFull:
			return policy.IOFailAll
		}
		return policy.IOHealthy
	}
	fl.sup, err = super.New(fl.rt, super.Config{
		IntervalS: 0.25, LatencyTargetS: 0.1, RestartBackoffS: 0.5, MaxRestarts: 3,
	})
	if err != nil {
		return nil, err
	}
	fl.aud, err = super.NewAuditor(fl.rt, fl.store)
	return fl, err
}

// settled reports that the storm has expired at every surviving lane and the
// supervisor has nothing pending.
func (fl *chaosFleet) settled() bool {
	minClock := math.Inf(1)
	for _, sig := range fl.rt.ShardSignals() {
		if sig.State != "dead" && sig.State != "drained" {
			minClock = min(minClock, sig.VirtualS)
		}
	}
	if minClock < chaosHorizonS+0.1 {
		return false
	}
	for _, row := range fl.sup.Status().Shards {
		if row.Phase != "ok" && row.Phase != "dead" {
			return false
		}
	}
	return true
}

// drive runs the storm with one sequential client, exactly as the soak does,
// digesting every response, until the fleet has settled or chaosMaxRequests
// have been sent. It returns the number of requests sent, the loop's wall
// time, the digest and whether the fleet settled.
func (fl *chaosFleet) drive(ring []serve.Request, t *tally, sb *spanBuf) (requests int, wall time.Duration, digest string, settled bool) {
	h := fnv.New64a()
	start := time.Now()
	i := 0
	for ; i < chaosMaxRequests; i++ {
		if i%chaosSettleEvery == 0 && fl.settled() {
			break
		}
		req := ring[i%ringSize]
		req.Model = chaosModel
		if i%4 == 3 {
			// Pinned probes reach cordoned shards (lifting a cordon needs
			// evidence) and advance lagging lane clocks.
			req.Device = chaosLanes[(i/4)%len(chaosLanes)]
		}
		before := time.Now()
		resp, _ := fl.rt.Do(req)
		after := time.Now()
		if resp.Status == serve.StatusServed {
			t.op(after.Sub(before), &resp.Decision)
		} else {
			t.op(after.Sub(before), nil)
		}
		if sb != nil {
			sb.add(0, "router.do", uint32(i), before, after, 0)
		}
		now := fl.rt.VirtualNow()
		if now > math.Float64frombits(fl.vclock.Load()) {
			fl.vclock.Store(math.Float64bits(now))
		}
		fmt.Fprintf(h, "%d|%s|%x;", resp.Status, resp.Device, math.Float64bits(resp.Decision.Measurement.LatencyS))
		if fl.sup.MaybeTick(now) {
			fl.aud.Observe()
		}
		if i%150 == 149 {
			fl.rt.SyncPolicies() // partitions and checkpoint I/O faults make this fail by design
		}
	}
	wall = time.Since(start)
	if !fl.settled() {
		return i, wall, "", false
	}
	fl.aud.Observe()
	for _, sig := range fl.rt.ShardSignals() {
		fmt.Fprintf(h, "S:%s=%s/%d@%x;", sig.Name, sig.State, sig.Incarnation, math.Float64bits(sig.VirtualS))
	}
	return i, wall, fmt.Sprintf("%x-n%d", h.Sum64(), i), true
}

// finish shuts the fleet down, runs the final audit and removes the scratch
// directory. It returns the auditor's violations.
func (fl *chaosFleet) finish() ([]string, error) {
	err := fl.rt.Shutdown(context.Background())
	fl.aud.Final()
	viols := fl.aud.Violations()
	if rmErr := os.RemoveAll(fl.dir); err == nil {
		err = rmErr
	}
	return viols, err
}

// saves counts the checkpoint generations the storm left in the store.
func (fl *chaosFleet) saves() (n uint64) {
	devices, err := fl.store.Devices()
	if err != nil {
		return 0
	}
	for _, d := range devices {
		n += fl.store.LatestGeneration(d)
	}
	return n
}

// chaosStorms is the storm count: thirty seeds at two intensities at the
// declared run length, a tenth of a second of driving each on the reference
// box and as much again to build the fleet, shut it down and audit it.
func chaosStorms(p params) int {
	n := int(6*p.seconds) / p.shrink
	return max(2, n)
}

func runFleetChaos(p params, traced bool) (*report, error) {
	r := newReport("fleet_chaos")
	ring, err := makeRing(p.seed, 0, true)
	if err != nil {
		return nil, err
	}
	storms := chaosStorms(p)
	t := newTally(storms * 2048)
	var setups, heaps []float64
	var walls []time.Duration
	var driveMallocs uint64
	var last *chaosFleet
	sum := make(map[string]float64)
	var sb *spanBuf
	if traced {
		sb = newSpanBuf(time.Now(), 0)
	}

	// Candidate storms are numbered from the seed; one that wedges the fleet
	// is abandoned and the next candidate takes its place.
	for cand := 0; len(walls) < storms; cand++ {
		if cand >= 4*storms {
			return nil, fmt.Errorf("only %d of the first %d storms settled", len(walls), cand)
		}
		seed, intensity := p.seed+200+int64(cand/2), chaosIntensity[cand%2]
		start := time.Now()
		fl, err := buildChaosFleet(p.outDir, seed, intensity)
		if err != nil {
			return nil, err
		}
		setupS := time.Since(start).Seconds()
		st := newTally(2048)
		m0 := mallocs()
		n, wall, digest, settled := fl.drive(ring, st, sb)
		mallocd := mallocs() - m0

		if settled {
			setups = append(setups, setupS)
			walls = append(walls, wall)
			driveMallocs += mallocd
			t.absorb(st)
			heaps = append(heaps, heapMB()) // this storm's fleet is still alive
			last = fl
			met := fl.rt.RouterMetrics()
			snap := fl.rt.Snapshot()
			status := fl.sup.Status()
			ts := fl.tracer.Stats()
			_, failedWrites, _ := fl.fsink.Stats()
			for k, v := range map[string]float64{
				"router.dispatched": float64(met.Dispatched), "router.shed": float64(met.Shed),
				"router.failovers": float64(met.Failovers), "router.rehomed": float64(met.RehomedDevices),
				"super.cordons": float64(met.Cordons), "super.revives": float64(met.Revives),
				"super.ticks": float64(status.Ticks), "super.actions": float64(len(status.Actions)),
				"serve.shed": float64(snap.Shed), "serve.expired": float64(snap.Expired), "serve.failed": float64(snap.Failed),
				"serve.retries": float64(snap.OffloadRetries), "serve.hedges": float64(snap.Hedges),
				"serve.breaker_opens": float64(snap.BreakerOpens), "serve.degraded_s": snap.DegradedSeconds,
				"sim.outages": float64(snap.Outages), "sim.wasted_j": snap.OutageWastedJ,
				"tracez.kept": float64(ts.Kept), "tracez.dropped": float64(ts.Dropped),
				"policy.saves": float64(fl.saves()), "policy.save_failures": float64(failedWrites),
				"fault.storm_faults": float64(fl.faults),
			} {
				sum[k] += v
			}
			sum["serve.queue_max_depth"] = max(sum["serve.queue_max_depth"], float64(snap.QueueMaxDepth))
		} else {
			sum["fault.storms_abandoned"]++
		}

		// Exactly-once accounting and the auditor's invariants hold for
		// every storm, settled or not.
		label := fmt.Sprintf("storm seed %d intensity %.1f", seed, intensity)
		viols, err := fl.finish()
		if err != nil {
			r.failf("%s shutdown: %v", label, err)
		}
		for _, v := range viols {
			r.failf("%s audit: %s", label, v)
		}
		final := fl.rt.RouterMetrics()
		if final.Submitted != final.Shed+final.Failed+final.Completed || int(final.Submitted) != n {
			r.failf("%s: router accounting %+v for %d requests", label, final, n)
		}
		if fs := fl.rt.Snapshot(); fs.Submitted != fs.Accounted() {
			r.failf("%s: gateways submitted %d, accounted %d", label, fs.Submitted, fs.Accounted())
		}

		if settled && len(walls) == 1 {
			// Replay the first storm on a fresh fleet: same seed, same bytes.
			replay, err := buildChaosFleet(p.outDir, seed, intensity)
			if err != nil {
				return nil, err
			}
			_, _, again, _ := replay.drive(ring, newTally(2048), nil)
			replay.finish()
			if again != digest {
				r.failf("%s replay diverged: digest %q vs %q", label, again, digest)
			}
		}
	}
	for k, v := range sum {
		r.set(k, v)
	}
	r.set("allocs_per_op", float64(driveMallocs)/float64(t.attempted))
	r.fleetHealth(last.rt.Health())
	if sb != nil {
		if err := writeSpans(p.outDir, r.Workload, sb); err != nil {
			return nil, err
		}
	}
	r.endToEnd([]*tally{t}, walls, setups)
	r.set("heap_mb", median(heaps))
	return r, nil
}
