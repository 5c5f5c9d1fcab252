package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/policy"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
	"autoscale/internal/trace"
)

func testEngine(t testing.TB, dev *soc.Device, seed int64, cfg core.Config) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(sim.NewWorld(dev, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func conds() sim.Conditions { return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55} }

// testShard builds one named gateway shard with one Mi8Pro-backed lane per
// name, seeded seedBase, seedBase+1, ... in lane order.
func testShard(t testing.TB, name string, lanes []string, seedBase int64, gcfg serve.Config) *serve.Gateway {
	t.Helper()
	backends := make([]serve.Backend, 0, len(lanes))
	for i, lane := range lanes {
		backends = append(backends, serve.Backend{
			Device: lane,
			Engine: testEngine(t, soc.Mi8Pro(), seedBase+int64(i), core.DefaultConfig()),
		})
	}
	gcfg.Name = name
	gw, err := serve.New(backends, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

// --- ring / placement ------------------------------------------------------

// TestRingDeterministic checks the ring is a pure function of the name set:
// input order must not matter, and lookups must be stable.
func TestRingDeterministic(t *testing.T) {
	a := newRing([]string{"shard-a", "shard-b", "shard-c"})
	b := newRing([]string{"shard-c", "shard-a", "shard-b"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("device-%d", i)
		if got, want := a.lookup(key), b.lookup(key); got != want {
			t.Fatalf("ring order-dependent: %q -> %q vs %q", key, got, want)
		}
	}
	if got := (&ring{}).lookup("x"); got != "" {
		t.Fatalf("empty ring lookup = %q, want empty", got)
	}
}

// TestRingMinimalMovement checks the consistent-hash property re-homing
// relies on: removing one shard moves only that shard's keys.
func TestRingMinimalMovement(t *testing.T) {
	full := newRing([]string{"shard-a", "shard-b", "shard-c"})
	survivors := newRing([]string{"shard-a", "shard-c"})
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("device-%d", i)
		before := full.lookup(key)
		after := survivors.lookup(key)
		if before != "shard-b" {
			if after != before {
				t.Fatalf("key %q moved %q -> %q though its shard survived", key, before, after)
			}
			continue
		}
		moved++
		if after == "shard-b" {
			t.Fatalf("key %q still owned by the removed shard", key)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed shard; test is vacuous")
	}
}

func TestLoadBound(t *testing.T) {
	cases := []struct {
		factor          float64
		devices, shards int
		want            int
	}{
		{1.25, 10, 4, 4}, // ceil(12.5/4) = ceil(3.125)
		{1.0, 10, 4, 3},  // ceil(2.5)
		{0.5, 10, 4, 3},  // sub-1 factors clamp to the even split
		{1.25, 1, 4, 1},
		{1.25, 0, 0, 0},
	}
	for _, c := range cases {
		if got := loadBound(c.factor, c.devices, c.shards); got != c.want {
			t.Errorf("loadBound(%g, %d, %d) = %d, want %d", c.factor, c.devices, c.shards, got, c.want)
		}
	}
}

// TestPlaceDevicesBounded checks every device lands somewhere and no shard
// exceeds the bounded-load ceiling, regardless of device input order.
func TestPlaceDevicesBounded(t *testing.T) {
	devices := make([]string, 20)
	for i := range devices {
		devices[i] = fmt.Sprintf("device-%d", i)
	}
	shards := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	homes := placeDevices(devices, shards, nil, 1.0)
	if len(homes) != len(devices) {
		t.Fatalf("placed %d of %d devices", len(homes), len(devices))
	}
	counts := map[string]int{}
	for dev, s := range homes {
		if dev == "" || s == "" {
			t.Fatalf("bad placement %q -> %q", dev, s)
		}
		counts[s]++
	}
	bound := loadBound(1.0, len(devices), len(shards))
	for s, n := range counts {
		if n > bound {
			t.Errorf("shard %s holds %d devices, bound %d", s, n, bound)
		}
	}
	// Reversed input must give the identical assignment.
	rev := make([]string, len(devices))
	for i, d := range devices {
		rev[len(devices)-1-i] = d
	}
	homes2 := placeDevices(rev, shards, nil, 1.0)
	for dev, s := range homes {
		if homes2[dev] != s {
			t.Fatalf("placement input-order dependent: %q -> %q vs %q", dev, s, homes2[dev])
		}
	}
}

// --- DRR fairness ----------------------------------------------------------

func drrReq(tenant string) *rreq {
	return &rreq{req: serve.Request{Tenant: tenant}, resp: make(chan serve.Response, 1)}
}

// TestDRRProportions checks the scheduler's core contract: under backlog,
// dispatches per rotation match the configured weights exactly.
func TestDRRProportions(t *testing.T) {
	d := newDRR([]Tenant{{"gold", 4}, {"silver", 2}, {"best", 1}})
	const perTenant = 70
	for i := 0; i < perTenant; i++ {
		for _, name := range []string{"gold", "silver", "best"} {
			d.push(d.queue(name), drrReq(name))
		}
	}
	counts := map[string]int{}
	for i := 0; i < 7*10; i++ { // ten full rotations
		r := d.pick()
		if r == nil {
			t.Fatalf("pick %d returned nil with %d queued", i, d.queued.Load())
		}
		counts[r.req.Tenant]++
	}
	if counts["gold"] != 40 || counts["silver"] != 20 || counts["best"] != 10 {
		t.Fatalf("DRR split %v, want gold=40 silver=20 best=10", counts)
	}
}

// TestDRRNoIdleCredit checks an idle tenant cannot bank deficit into a burst:
// after gold drains and best idles, a refilled best still alternates at its
// weight rather than spending accrued credit.
func TestDRRNoIdleCredit(t *testing.T) {
	d := newDRR([]Tenant{{"gold", 4}, {"best", 1}})
	for i := 0; i < 8; i++ {
		d.push(d.queue("gold"), drrReq("gold"))
	}
	for i := 0; i < 8; i++ {
		if r := d.pick(); r == nil || r.req.Tenant != "gold" {
			t.Fatalf("pick %d: %+v, want gold", i, r)
		}
	}
	// best idled through two rotations; its deficit must be forfeit.
	if got := d.queue("best").deficit; got != 0 {
		t.Fatalf("idle tenant banked deficit %d", got)
	}
	for i := 0; i < 10; i++ {
		d.push(d.queue("gold"), drrReq("gold"))
		d.push(d.queue("best"), drrReq("best"))
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		counts[d.pick().req.Tenant]++
	}
	if counts["best"] > 4 {
		t.Fatalf("idle tenant burst to %d of 10 picks at weight 1 vs 4", counts["best"])
	}
}

func TestDRREmpty(t *testing.T) {
	d := newDRR([]Tenant{{"gold", 4}})
	if r := d.pick(); r != nil {
		t.Fatalf("pick on empty scheduler = %+v", r)
	}
	if tq := d.queue("nope"); tq != nil {
		t.Fatal("unknown tenant resolved to a queue")
	}
	// Weights below 1 are raised so the tenant still makes progress.
	d = newDRR([]Tenant{{"zero", 0}})
	d.push(d.queue("zero"), drrReq("zero"))
	if r := d.pick(); r == nil {
		t.Fatal("weight-0 tenant starved")
	}
}

// --- admission (white-box: dispatch held, so queues hold still) ------------

// holdDispatch takes the dispatch mutex, so neither submitters nor the
// dispatcher goroutine can pump until the returned release: a test builds its
// exact backlog in between.
func holdDispatch(rt *Router) (release func()) {
	rt.dmu.Lock()
	return func() {
		rt.dmu.Unlock()
		rt.wakeUp()
	}
}

// pausedRouter builds a Router that never dispatches — no dispatcher
// goroutine and the dispatch mutex held for good — so admission decisions can
// be observed deterministically.
func pausedRouter(cfg Config) *Router {
	tenants := append([]Tenant(nil), cfg.Tenants...)
	hasDefault := false
	for _, t := range tenants {
		if t.Name == DefaultTenant {
			hasDefault = true
		}
	}
	if !hasDefault {
		tenants = append(tenants, Tenant{Name: DefaultTenant, Weight: 1})
	}
	rt := &Router{
		cfg:         cfg,
		tenantDepth: cfg.tenantQueueDepth(),
		shards:      map[string]*shard{},
		homes:       map[string]string{},
		drr:         newDRR(tenants),
		wake:        make(chan struct{}, 1),
		stopc:       make(chan struct{}),
	}
	rt.budget.Store(int64(cfg.globalBudget()))
	holdDispatch(rt)
	return rt
}

func TestSubmitShedNewest(t *testing.T) {
	rt := pausedRouter(Config{TenantQueueDepth: 2, Shed: serve.ShedNewest})
	m := dnn.MustByName("MobileNet v3")
	var chans []<-chan serve.Response
	for i := 0; i < 3; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	select {
	case r := <-chans[2]:
		if r.Status != serve.StatusShed || !errors.Is(r.Err, serve.ErrQueueFull) {
			t.Fatalf("overflow arrival got %+v, want shed", r)
		}
	default:
		t.Fatal("ShedNewest did not reject the overflow arrival")
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-chans[i]:
			t.Fatalf("queued request %d terminated early: %+v", i, r)
		default:
		}
	}
	tqs := rt.TenantQueues()
	var def TenantQueueStatus
	for _, tq := range tqs {
		if tq.Tenant == DefaultTenant {
			def = tq
		}
	}
	if def.Queued != 2 || def.Admitted != 2 || def.Shed != 1 {
		t.Fatalf("default tenant accounting %+v, want queued=2 admitted=2 shed=1", def)
	}
	if got := rt.RouterMetrics(); got.Submitted != 3 || got.Shed != 1 {
		t.Fatalf("router counters %+v", got)
	}
}

func TestSubmitShedOldest(t *testing.T) {
	rt := pausedRouter(Config{TenantQueueDepth: 2, Shed: serve.ShedOldest})
	m := dnn.MustByName("MobileNet v3")
	var chans []<-chan serve.Response
	for i := 0; i < 3; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	select {
	case r := <-chans[0]:
		if r.Status != serve.StatusShed {
			t.Fatalf("oldest request got %+v, want shed", r)
		}
	default:
		t.Fatal("ShedOldest did not evict the queue head")
	}
	select {
	case r := <-chans[2]:
		t.Fatalf("newest request terminated under ShedOldest: %+v", r)
	default:
	}
}

func TestSubmitUnknownTenant(t *testing.T) {
	rt := pausedRouter(Config{Tenants: []Tenant{{"gold", 4}}})
	ch, err := rt.Submit(serve.Request{Model: dnn.MustByName("MobileNet v3"), Tenant: "platinum"})
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.Status != serve.StatusFailed || !errors.Is(r.Err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant got %+v", r)
	}
	if got := rt.RouterMetrics().Failed; got != 1 {
		t.Fatalf("failed counter %d, want 1", got)
	}
}

// --- router integration ----------------------------------------------------

func TestRouterValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("no shards accepted")
	}
	gwA := testShard(t, "a", []string{"lane-a"}, 1, serve.Config{})
	gwDup := testShard(t, "b", []string{"lane-a"}, 2, serve.Config{})
	if _, err := New([]ShardGateway{{"a", gwA}, {"b", gwDup}}, Config{}); err == nil {
		t.Error("duplicate device across shards accepted")
	}
	if _, err := New([]ShardGateway{{"", gwA}}, Config{}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := New([]ShardGateway{{"a", gwA}, {"a", gwA}}, Config{}); err == nil {
		t.Error("duplicate shard name accepted")
	}
}

func TestRouterPinnedAndUnpinned(t *testing.T) {
	gwA := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	gwB := testShard(t, "shard-b", []string{"lane-b"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck

	m := dnn.MustByName("MobileNet v3")
	// Pinned requests land on the device's home shard.
	for i := 0; i < 10; i++ {
		r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Device: "lane-b"})
		if err != nil || r.Status != serve.StatusServed {
			t.Fatalf("pinned request %d: %v %+v", i, err, r)
		}
		if r.Device != "lane-b" {
			t.Fatalf("pinned request served by %q", r.Device)
		}
	}
	if served := gwB.Snapshot().Served; served != 10 {
		t.Fatalf("home shard served %d of 10 pinned requests", served)
	}
	if served := gwA.Snapshot().Served; served != 0 {
		t.Fatalf("wrong shard served %d pinned requests", served)
	}

	// Unpinned requests spread over healthy shards (rotating tiebreak).
	for i := 0; i < 40; i++ {
		if r, err := rt.Do(serve.Request{Model: m, Conditions: conds()}); err != nil || r.Status != serve.StatusServed {
			t.Fatalf("unpinned request %d: %v %+v", i, err, r)
		}
	}
	if a, b := gwA.Snapshot().Served, gwB.Snapshot().Served; a == 0 || b <= 10 {
		t.Fatalf("unpinned load did not spread: shard-a=%d shard-b=%d", a, b)
	}

	// An unknown pinned device fails fast at the router.
	r, _ := rt.Do(serve.Request{Model: m, Conditions: conds(), Device: "lane-z"})
	if r.Status != serve.StatusFailed || !errors.Is(r.Err, serve.ErrUnknownDevice) {
		t.Fatalf("unknown device got %+v", r)
	}

	if got := rt.Devices(); len(got) != 2 || got[0] != "lane-a" || got[1] != "lane-b" {
		t.Fatalf("Devices() = %v", got)
	}
	if home := rt.Home("lane-a"); home != "shard-a" {
		t.Fatalf("Home(lane-a) = %q", home)
	}
	if h := rt.Health(); len(h) != 2 {
		t.Fatalf("Health() covers %d devices, want 2", len(h))
	}
}

func TestRouterSubmitAfterShutdown(t *testing.T) {
	gw := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !rt.Closed() {
		t.Fatal("router not closed after Shutdown")
	}
	if _, err := rt.Submit(serve.Request{Model: dnn.MustByName("MobileNet v3")}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	if err := rt.Shutdown(context.Background()); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("double shutdown: %v", err)
	}
}

// TestRouterDrainRehome retires a shard gracefully: a pre-drain federation
// pass freshens checkpoints, the shard's lanes re-home onto the survivor with
// checkpoint warm-start, and pinned traffic to the moved lanes keeps flowing.
func TestRouterDrainRehome(t *testing.T) {
	store, err := policy.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := serve.Config{Checkpoints: store}
	gwA := testShard(t, "shard-a", []string{"lane-a0", "lane-a1"}, 1, gcfg)
	gwB := testShard(t, "shard-b", []string{"lane-b0", "lane-b1"}, 3, gcfg)
	seeds := map[string]int64{"lane-a0": 1, "lane-a1": 2, "lane-b0": 3, "lane-b1": 4}
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{
		Checkpoints: store,
		EngineFactory: func(lane string) (*core.Engine, error) {
			seed, ok := seeds[lane]
			if !ok {
				return nil, fmt.Errorf("unknown lane %q", lane)
			}
			return core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seed), core.DefaultConfig())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck

	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 40; i++ {
		dev := []string{"lane-a0", "lane-a1", "lane-b0", "lane-b1"}[i%4]
		if r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Device: dev}); err != nil || r.Status != serve.StatusServed {
			t.Fatalf("warmup %d: %v %+v", i, err, r)
		}
	}

	if err := rt.DrainShard(context.Background(), "shard-b"); err != nil {
		t.Fatal(err)
	}
	met := rt.RouterMetrics()
	if met.ShardDrains != 1 || met.RehomedDevices != 2 {
		t.Fatalf("drain accounting %+v, want 1 drain, 2 re-homed", met)
	}
	for _, lane := range []string{"lane-b0", "lane-b1"} {
		if home := rt.Home(lane); home != "shard-a" {
			t.Fatalf("lane %s homed on %q after drain", lane, home)
		}
	}
	// The survivor warm-started the moved lanes from their fresh checkpoints.
	warm := gwA.WarmStarts()
	for _, lane := range []string{"lane-b0", "lane-b1"} {
		if gen, ok := warm[lane]; !ok || gen < 1 {
			t.Fatalf("lane %s warm-start generation %d (present=%v)", lane, gen, ok)
		}
	}
	// Pinned traffic to the moved lanes keeps flowing on the survivor.
	for i := 0; i < 6; i++ {
		r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Device: "lane-b0"})
		if err != nil || r.Status != serve.StatusServed {
			t.Fatalf("post-drain pinned %d: %v %+v", i, err, r)
		}
	}
	// Double drain is an error; the drained shard's served history survives
	// in the merged snapshot.
	if err := rt.DrainShard(context.Background(), "shard-b"); err == nil {
		t.Fatal("double drain accepted")
	}
	if snap := rt.Snapshot(); snap.Served < 46 {
		t.Fatalf("merged snapshot lost history: served=%d", snap.Served)
	}
	var states []string
	for _, s := range rt.ShardStatuses() {
		states = append(states, s.Name+"="+s.State)
	}
	if want := []string{"shard-a=healthy", "shard-b=drained"}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("shard states %v, want %v", states, want)
	}
}

// TestRouterFailoverBudget bounces a pinned request off a gateway that died
// behind the router's back: each bounce consumes one failover, and the
// request fails once the budget is spent.
func TestRouterFailoverBudget(t *testing.T) {
	gwA := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	gwB := testShard(t, "shard-b", []string{"lane-b"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck

	// Kill shard-b's gateway directly — the router still believes it is
	// healthy, so every dispatch of a lane-b request bounces.
	if err := gwB.Kill(); err != nil {
		t.Fatal(err)
	}
	r, _ := rt.Do(serve.Request{Model: dnn.MustByName("MobileNet v3"), Conditions: conds(), Device: "lane-b"})
	if r.Status != serve.StatusFailed {
		t.Fatalf("bounced request got %+v", r)
	}
	met := rt.RouterMetrics()
	if met.Failovers != 2 {
		t.Fatalf("failovers = %d, want the full budget of 2", met.Failovers)
	}
	if met.Failed != 1 {
		t.Fatalf("failed = %d, want 1", met.Failed)
	}
	// Unpinned traffic still flows through the survivor.
	if r, err := rt.Do(serve.Request{Model: dnn.MustByName("MobileNet v3"), Conditions: conds()}); err != nil || r.Status != serve.StatusServed {
		t.Fatalf("survivor request: %v %+v", err, r)
	}
}

// TestRouterKillLastShard checks requests fail fast, not hang, when no
// healthy shard remains.
func TestRouterKillLastShard(t *testing.T) {
	gw := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck
	if err := rt.KillShard("shard-a"); err != nil {
		t.Fatal(err)
	}
	if err := rt.KillShard("shard-a"); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := rt.KillShard("nope"); err == nil {
		t.Fatal("unknown shard kill accepted")
	}
	m := dnn.MustByName("MobileNet v3")
	r, _ := rt.Do(serve.Request{Model: m, Conditions: conds()})
	if r.Status != serve.StatusFailed || !errors.Is(r.Err, ErrNoHealthyShard) {
		t.Fatalf("unpinned with no shard got %+v", r)
	}
	r, _ = rt.Do(serve.Request{Model: m, Conditions: conds(), Device: "lane-a"})
	if r.Status != serve.StatusFailed {
		t.Fatalf("pinned with no shard got %+v", r)
	}
}

// TestRouterFairness is the acceptance criterion: under saturating load the
// per-tenant service split stays within 10% (relative) of the configured
// weights. The backlog is built with dispatch held (a submitter that
// dispatches its own request never forms one by outrunning the dispatcher),
// and the single shard's decision trace is the dispatch record: a mid-run
// window — before any tenant drains — must split 4:2:1.
func TestRouterFairness(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	gw := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{QueueDepth: 64, Trace: tw})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{
		Tenants:          []Tenant{{"gold", 4}, {"silver", 2}, {"best", 1}},
		GlobalBudget:     8,
		TenantQueueDepth: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}

	m := dnn.MustByName("MobileNet v3")
	const perTenant = 600
	tenants := []string{"gold", "silver", "best"}
	var chans []<-chan serve.Response
	release := holdDispatch(rt)
	for i := 0; i < perTenant; i++ {
		for _, tn := range tenants {
			ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds(), Tenant: tn})
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
	}
	release()
	for i, ch := range chans {
		if r := <-ch; r.Status != serve.StatusServed {
			t.Fatalf("request %d: %+v", i, r)
		}
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3*perTenant {
		t.Fatalf("trace carries %d records for %d requests", len(records), 3*perTenant)
	}

	// Window [400, 1000): well inside the backlog, before gold (share 4/7 of
	// 1800 -> exhausted near record 1050) runs dry.
	counts := map[string]int{}
	for _, rec := range records[400:1000] {
		counts[rec.Tenant]++
	}
	total := 600.0
	weights := map[string]float64{"gold": 4, "silver": 2, "best": 1}
	for tn, w := range weights {
		want := total * w / 7
		got := float64(counts[tn])
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("tenant %s served %v of %v in-window requests, want %.0f±10%%", tn, got, total, want)
		}
	}
}

// errSink fails every save with its own numbered error, so each sync pass
// leaves a distinct last error behind.
type errSink struct {
	prefix string
	n      atomic.Int32
}

func (s *errSink) SaveNext(*policy.Checkpoint) (uint64, error) {
	return 0, fmt.Errorf("%s %d", s.prefix, s.n.Add(1))
}

func (s *errSink) Latest(string) (*policy.Checkpoint, error) { return nil, policy.ErrNoCheckpoint }

// TestSnapshotSyncAlarmFromOnePlane: the router's syncer joins the merged
// snapshot under metrics.Merge's rule, so the consecutive-failure count and
// the last error shown together always come from the same sync plane —
// here the router's syncer (two failed passes) over a shard's (one).
func TestSnapshotSyncAlarmFromOnePlane(t *testing.T) {
	noSleep := policy.SyncConfig{MaxAttempts: 1, Sleep: func(time.Duration) {}}
	gwA := testShard(t, "shard-a", []string{"lane-a0"}, 1,
		serve.Config{Checkpoints: &errSink{prefix: "shard disk gone"}, PolicySync: noSleep})
	gwB := testShard(t, "shard-b", []string{"lane-b0"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{
		Checkpoints: &errSink{prefix: "router disk gone"}, PolicySync: noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck

	if rep, err := gwA.SyncPolicies(); err != nil || rep.Err() == nil {
		t.Fatalf("shard sync pass: %v / %v, want a failed pass", err, rep.Err())
	}
	for i := 0; i < 2; i++ {
		if rep, err := rt.SyncPolicies(); err != nil || rep.Err() == nil {
			t.Fatalf("router sync pass %d: %v / %v, want a failed pass", i, err, rep.Err())
		}
	}
	h := rt.syncer.Health()
	s := rt.Snapshot()
	if s.SyncConsecutiveFailures != 2 || s.SyncLastError != h.LastError {
		t.Fatalf("merged sync alarm: %d consecutive, last error %q; want 2 and the router syncer's %q",
			s.SyncConsecutiveFailures, s.SyncLastError, h.LastError)
	}
	if s.SyncPasses != 3 || s.SyncFailures != 3 {
		t.Fatalf("merged sync counters: %d passes, %d failures; want 3 and 3", s.SyncPasses, s.SyncFailures)
	}
}

// Home returns the shard currently serving a device ("" when unknown).
func (rt *Router) Home(device string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.homes[device]
}
