package super

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/obs"
	"autoscale/internal/policy"
	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func conds() sim.Conditions { return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55} }

// fleet is a supervised test fleet: a sharded router whose ShardFactory can
// rebuild any shard deterministically (same per-lane seeds), over one
// checkpoint store and one compiled fault schedule.
type fleet struct {
	rt    *router.Router
	store *policy.Store
	inj   *fault.Injector
	lanes []string
}

// buildFleet stands up len(shards) gateways ("shard-a": lanes...) with
// Mi8Pro-backed lanes seeded seed, seed+1, ... in sorted shard/lane order,
// all sharing store and the compiled schedule. sink, when non-nil, replaces
// the raw store as the gateways' and router's checkpoint sink (fault-drill
// plumbing); the auditor still sweeps the raw store.
func buildFleet(t testing.TB, seed int64, sched *fault.Schedule, shards map[string][]string, sink policy.Sink, opts ...func(*router.Config)) *fleet {
	t.Helper()
	store, err := policy.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		sink = store
	} else if fs, ok := sink.(*policy.FaultSink); ok && fs.Inner == nil {
		// Chaos plumbing: the caller hands an empty fault sink and fills in
		// the verdict wiring once the router exists; the store slots in here
		// so construction-time warm starts already flow through it.
		fs.Inner = store
	}
	inj := fault.New(sched, exec.NewRoot(seed).Child("faults"))

	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	seeds := make(map[string]int64)
	var lanes []string
	next := seed
	for _, name := range names {
		for _, lane := range shards[name] {
			seeds[lane] = next
			lanes = append(lanes, lane)
			next++
		}
	}

	mkEngine := func(lane string) (*core.Engine, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seeds[lane]
		return core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seeds[lane]), cfg)
	}
	mkShard := func(name string, devs []string) (*serve.Gateway, error) {
		backends := make([]serve.Backend, 0, len(devs))
		for _, lane := range devs {
			e, err := mkEngine(lane)
			if err != nil {
				return nil, err
			}
			backends = append(backends, serve.Backend{Device: lane, Engine: e})
		}
		return serve.New(backends, serve.Config{
			Name: name, QueueDepth: 256, Checkpoints: sink, Faults: inj,
			PolicySync: policy.SyncConfig{Sleep: func(time.Duration) {}},
		})
	}

	gws := make([]router.ShardGateway, 0, len(names))
	for _, name := range names {
		gw, err := mkShard(name, shards[name])
		if err != nil {
			t.Fatal(err)
		}
		gws = append(gws, router.ShardGateway{Name: name, Gateway: gw})
	}
	rcfg := router.Config{
		Tenants:          []router.Tenant{{Name: "gold", Weight: 4}, {Name: "silver", Weight: 2}, {Name: "best", Weight: 1}},
		TenantQueueDepth: 1024,
		Checkpoints:      sink,
		Faults:           inj,
		PolicySync:       policy.SyncConfig{Sleep: func(time.Duration) {}},
		EngineFactory:    mkEngine,
		ShardFactory:     mkShard,
	}
	for _, opt := range opts {
		opt(&rcfg)
	}
	rt, err := router.New(gws, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fleet{rt: rt, store: store, inj: inj, lanes: lanes}
}

func p95(lat []float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return s[len(s)*95/100]
}

// grayRun drives a two-shard fleet through a gray-degradation window on both
// of shard-b's lanes: no crash, no breaker trip — just a silent latency
// multiplier. It returns the post-onset latencies and the router's final
// view. Supervised runs tick a Supervisor (target calibrated from the
// healthy warmup); naive runs fly blind.
func grayRun(t *testing.T, seed int64, supervised bool) (healthy, degraded []float64, rt *router.Router) {
	t.Helper()
	const grayFrom = 1.5
	sched := &fault.Schedule{Name: "gray", Faults: []fault.Spec{
		{Kind: fault.KindGrayDegrade, Device: "lane-b0", StartS: grayFrom, EndS: 3600, Factor: 30},
		{Kind: fault.KindGrayDegrade, Device: "lane-b1", StartS: grayFrom, EndS: 3600, Factor: 30},
	}}
	fl := buildFleet(t, seed, sched, map[string][]string{
		"shard-a": {"lane-a0", "lane-a1"},
		"shard-b": {"lane-b0", "lane-b1"},
	}, nil)
	rt = fl.rt

	m := dnn.MustByName("MobileNet v3")
	do := func() float64 {
		r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Tenant: "gold"})
		if err != nil {
			t.Fatalf("request failed: %v (%+v)", err, r)
		}
		return r.Decision.Measurement.LatencyS
	}

	// Warmup: every lane clock past the gray onset means the fault holds for
	// the whole measured phase.
	for rt.VirtualNow() < grayFrom || len(healthy) < 80 {
		healthy = append(healthy, do())
		if len(healthy) > 2000 {
			t.Fatal("warmup never reached the gray onset")
		}
	}

	var sup *Supervisor
	if supervised {
		var err error
		sup, err = New(rt, Config{
			IntervalS:      0.25,
			LatencyTargetS: 2 * p95(healthy),
		})
		if err != nil {
			t.Fatal(err)
		}
		sup.MaybeTick(rt.VirtualNow()) // prime the window baselines
	}
	for i := 0; i < 400; i++ {
		degraded = append(degraded, do())
		if sup != nil {
			sup.MaybeTick(rt.VirtualNow())
		}
	}
	return healthy, degraded, rt
}

// TestGrayFailureCordon is the gray-failure regression drill: a shard under
// a latency multiplier that never crashes must be cordoned by the
// supervisor, and the supervised fleet's tail latency must stay near
// healthy, while the naive fleet's p95 blows up by the full gray factor.
func TestGrayFailureCordon(t *testing.T) {
	const seed = 11
	healthyN, naive, rtN := grayRun(t, seed, false)
	healthyS, supervised, rtS := grayRun(t, seed, true)

	if st := rtN.ShardState("shard-b"); st != "healthy" {
		t.Fatalf("naive run moved shard-b to %q with no supervisor", st)
	}
	if st := rtS.ShardState("shard-b"); st != "cordoned" {
		t.Fatalf("supervised run left shard-b %q, want cordoned", st)
	}
	if m := rtS.RouterMetrics(); m.Cordons == 0 {
		t.Fatalf("no cordon recorded: %+v", m)
	}

	// Naive: half the unpinned traffic keeps landing on the gray shard, so
	// gold-class p95 explodes relative to the healthy baseline.
	base := p95(healthyN)
	if got := p95(naive); got < 5*base {
		t.Fatalf("gray fault too gentle: naive p95 %.1fms vs healthy %.1fms", got*1e3, base*1e3)
	}
	// Supervised: after the cordon (sickTicks * interval of exposure), the
	// tail of the run routes around the gray shard. Judge the second half.
	tail := supervised[len(supervised)/2:]
	if got, limit := p95(tail), 3*p95(healthyS); got > limit {
		t.Errorf("supervised tail p95 %.1fms exceeds %.1fms: cordon did not shield gold class",
			got*1e3, limit*1e3)
	}

	if err := rtN.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rtS.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCrashLoopConvergesToDead pins the remediation budget: a shard that
// dies again after every revive must consume its restarts with exponential
// backoff and converge to dead — never a hot restart loop.
func TestCrashLoopConvergesToDead(t *testing.T) {
	fl := buildFleet(t, 21, nil, map[string][]string{
		"shard-a": {"lane-a0", "lane-a1"},
		"shard-b": {"lane-b0"},
	}, nil)
	const maxRestarts = 3
	sup, err := New(fl.rt, Config{
		IntervalS:       0.1,
		RestartBackoffS: 0.4,
		MaxRestarts:     maxRestarts,
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := fl.rt.KillShard("shard-b"); err != nil {
		t.Fatal(err)
	}

	phaseOf := func(shard string) string {
		for _, row := range sup.Status().Shards {
			if row.Name == shard {
				return row.Phase
			}
		}
		return ""
	}

	m := dnn.MustByName("MobileNet v3")
	var reviveAt []float64
	lastRevives := uint64(0)
	for i := 0; i < 3000 && phaseOf("shard-b") != "dead"; i++ {
		if _, err := fl.rt.Do(serve.Request{Model: m, Conditions: conds(), Tenant: "best"}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		sup.MaybeTick(fl.rt.VirtualNow())
		if rv := fl.rt.RouterMetrics().Revives; rv > lastRevives {
			lastRevives = rv
			reviveAt = append(reviveAt, fl.rt.VirtualNow())
			// The flap: the revived shard dies again immediately.
			if err := fl.rt.KillShard("shard-b"); err != nil {
				t.Fatalf("re-kill after revive %d: %v", rv, err)
			}
		}
	}

	if ph, st := phaseOf("shard-b"), fl.rt.ShardState("shard-b"); ph != "dead" || st != "dead" {
		t.Fatalf("flapping shard ended phase %q router-state %q, want dead/dead (revives %d)",
			ph, st, lastRevives)
	}
	if lastRevives != maxRestarts {
		t.Fatalf("revives = %d, want the full budget %d", lastRevives, maxRestarts)
	}
	// Exponential backoff: successive revive gaps must grow.
	if len(reviveAt) == maxRestarts {
		g1, g2 := reviveAt[1]-reviveAt[0], reviveAt[2]-reviveAt[1]
		if g2 < 1.5*g1 {
			t.Errorf("backoff not doubling: revive gaps %.2fs then %.2fs", g1, g2)
		}
	}
	st := sup.Status()
	var row *ShardStatus
	for i := range st.Shards {
		if st.Shards[i].Name == "shard-b" {
			row = &st.Shards[i]
		}
	}
	if row == nil || row.Phase != "dead" || row.Restarts != maxRestarts {
		t.Fatalf("supervisor status for shard-b: %+v", row)
	}
	condemned := false
	for _, a := range st.Actions {
		if a.Shard == "shard-b" && a.Action == "condemn" {
			condemned = true
		}
	}
	if !condemned {
		t.Fatalf("no condemn action in the log: %+v", st.Actions)
	}

	// Dead is terminal: more ticks must not resurrect it.
	for i := 0; i < 50; i++ {
		if _, err := fl.rt.Do(serve.Request{Model: m, Conditions: conds(), Tenant: "best"}); err != nil {
			t.Fatal(err)
		}
		sup.MaybeTick(fl.rt.VirtualNow())
	}
	if rv := fl.rt.RouterMetrics().Revives; rv != maxRestarts {
		t.Fatalf("condemned shard revived again: %d revives", rv)
	}
	if err := fl.rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorStatusJSONAndProm smoke-checks the admin surfaces.
func TestSupervisorStatusJSONAndProm(t *testing.T) {
	fl := buildFleet(t, 5, nil, map[string][]string{"shard-a": {"lane-a0"}}, nil)
	defer fl.rt.Shutdown(context.Background())
	sup, err := New(fl.rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sup.MaybeTick(0)
	js, err := sup.StatusJSON()
	if err != nil || len(js) == 0 {
		t.Fatalf("StatusJSON: %v (%d bytes)", err, len(js))
	}
	var p obs.Prom
	sup.AppendProm(&p)
	prom := string(p.Bytes())
	for _, want := range []string{"autoscale_super_ticks_total", "autoscale_super_score", "autoscale_super_phase"} {
		if !strings.Contains(prom, want) {
			t.Errorf("AppendProm missing %s:\n%s", want, prom)
		}
	}
}

// TestAuditorObserveConcurrent: several load-generator clients call Observe
// while the lane clock advances (autoscale-serve -chaos -clients 4). Each
// call must compare the marks in the order it sampled them, or a slow caller
// reports the clock it sampled earlier as having moved backwards.
func TestAuditorObserveConcurrent(t *testing.T) {
	fl := buildFleet(t, 9, nil, map[string][]string{"shard-a": {"lane-a0"}}, nil)
	defer fl.rt.Shutdown(context.Background())
	aud, err := NewAuditor(fl.rt, fl.store)
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := fl.rt.Do(serve.Request{Model: m, Conditions: conds(), Tenant: "gold"}); err != nil {
					t.Error(err)
					return
				}
				aud.Observe()
			}
		}()
	}
	wg.Wait()
	if v := aud.Violations(); len(v) > 0 {
		t.Fatalf("%d violations under concurrent Observe, first: %s", len(v), v[0])
	}
}
