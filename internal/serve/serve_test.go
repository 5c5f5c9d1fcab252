package serve

import (
	"context"
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
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func testEngine(t testing.TB, dev *soc.Device, seed int64, cfg core.Config) *core.Engine {
	t.Helper()
	w := sim.NewWorld(dev, seed)
	e, err := core.NewEngine(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testGateway(t testing.TB, cfg Config) *Gateway {
	t.Helper()
	g, err := New([]Backend{
		{Device: "Mi8Pro", Engine: testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())},
		{Device: "GalaxyS10e", Engine: testEngine(t, soc.GalaxyS10e(), 2, core.DefaultConfig())},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func conds() sim.Conditions { return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55} }

// TestGatewayStress floods two devices from 16 concurrent clients and checks
// the accounting invariants: no request is lost (served + shed + expired ==
// submitted), rejected requests never execute, and the metrics snapshot
// agrees with the per-request responses.
func TestGatewayStress(t *testing.T) {
	const clients, perClient = 16, 50
	g := testGateway(t, Config{QueueDepth: 1})
	m := dnn.MustByName("MobileNet v3")
	devices := g.Devices()

	var mu sync.Mutex
	var chans []<-chan Response
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := make([]<-chan Response, 0, perClient)
			for i := 0; i < perClient; i++ {
				req := Request{Model: m, Conditions: conds(), Device: devices[(c+i)%len(devices)]}
				if i%7 == 3 {
					// Dead on arrival: must expire, never execute.
					req.Deadline = time.Now().Add(-time.Second)
				}
				ch, err := g.Submit(req)
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				local = append(local, ch)
			}
			mu.Lock()
			chans = append(chans, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	tally := map[Status]int64{}
	for _, ch := range chans {
		select {
		case r := <-ch:
			tally[r.Status]++
			if r.Status != StatusServed {
				// Shed and expired requests must never have executed.
				if r.Decision.Measurement.LatencyS != 0 || r.Decision.Measurement.EnergyJ != 0 {
					t.Fatalf("%s request carries an execution: %+v", r.Status, r.Decision)
				}
				if r.Err == nil {
					t.Fatalf("%s request without a cause", r.Status)
				}
			}
		default:
			t.Fatal("request lost: no response after drain")
		}
	}

	total := int64(clients * perClient)
	if got := tally[StatusServed] + tally[StatusShed] + tally[StatusExpired] + tally[StatusFailed]; got != total {
		t.Fatalf("responses = %d, want %d (tally %v)", got, total, tally)
	}
	if tally[StatusFailed] != 0 {
		t.Fatalf("unexpected failures: %v", tally)
	}
	if tally[StatusServed] == 0 || tally[StatusExpired] == 0 {
		t.Fatalf("degenerate stress mix: %v", tally)
	}

	snap := g.Snapshot()
	if snap.Submitted != total {
		t.Errorf("snapshot submitted = %d, want %d", snap.Submitted, total)
	}
	if snap.Accounted() != total {
		t.Errorf("snapshot accounts for %d of %d", snap.Accounted(), total)
	}
	for status, want := range map[Status]int64{
		StatusServed:  snap.Served,
		StatusShed:    snap.Shed,
		StatusExpired: snap.Expired,
		StatusFailed:  snap.Failed,
	} {
		if tally[status] != want {
			t.Errorf("%s: responses %d vs snapshot %d", status, tally[status], want)
		}
	}
	if snap.Latency.Count != snap.Served {
		t.Errorf("latency observations = %d, want %d", snap.Latency.Count, snap.Served)
	}
	var byDevice int64
	for _, n := range snap.ByDevice {
		byDevice += n
	}
	if byDevice != snap.Served {
		t.Errorf("per-device counts sum to %d, want %d", byDevice, snap.Served)
	}
	if snap.QueueDepth != 0 {
		t.Errorf("queue depth after drain = %d", snap.QueueDepth)
	}
}

// TestShedPolicies drives admission control deterministically against a
// gateway whose worker is never started, so the queue state is fully
// controlled by the test.
func TestShedPolicies(t *testing.T) {
	m := dnn.MustByName("MobileNet v1")
	build := func(policy ShedPolicy) *Gateway {
		g, err := newGateway([]Backend{{Device: "Mi8Pro", Engine: testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())}},
			Config{QueueDepth: 1, Shed: policy})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	t.Run("newest", func(t *testing.T) {
		g := build(ShedNewest)
		first, err := g.Submit(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		second, err := g.Submit(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-second:
			if r.Status != StatusShed || r.Err != ErrQueueFull {
				t.Fatalf("second request: %+v", r)
			}
		default:
			t.Fatal("newest arrival not shed on full queue")
		}
		select {
		case r := <-first:
			t.Fatalf("queued request disturbed: %+v", r)
		default:
		}
		if snap := g.Snapshot(); snap.Shed != 1 || snap.Submitted != 2 {
			t.Fatalf("snapshot: %+v", snap)
		}
	})

	t.Run("oldest", func(t *testing.T) {
		g := build(ShedOldest)
		first, err := g.Submit(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Submit(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-first:
			if r.Status != StatusShed || r.Err != ErrQueueFull {
				t.Fatalf("oldest request: %+v", r)
			}
		default:
			t.Fatal("oldest queued request not evicted")
		}
		if got := len(g.workers[0].queue); got != 1 {
			t.Fatalf("queue depth after eviction = %d, want 1 (the new arrival)", got)
		}
	})
}

// TestDeadlineExpiredAtSubmit checks that dead-on-arrival requests are
// rejected by admission control without ever touching a queue.
func TestDeadlineExpiredAtSubmit(t *testing.T) {
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background())
	r, err := g.Do(Request{
		Model:      dnn.MustByName("MobileNet v1"),
		Conditions: conds(),
		Deadline:   time.Now().Add(-time.Minute),
	})
	if err != ErrDeadlineExpired {
		t.Fatalf("err = %v, want ErrDeadlineExpired", err)
	}
	if r.Status != StatusExpired || r.Decision.Measurement.LatencyS != 0 {
		t.Fatalf("response: %+v", r)
	}
	if snap := g.Snapshot(); snap.Expired != 1 || snap.Served != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestDeadlineExpiredInQueue covers the dispatch-time fast-fail: a request
// admitted with a live deadline that dies while queued must not execute.
func TestDeadlineExpiredInQueue(t *testing.T) {
	// The clock jumps forward between admission and dispatch.
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	g, err := newGateway([]Backend{{Device: "Mi8Pro", Engine: testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())}},
		Config{QueueDepth: 4, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	w := g.workers[0]
	ch, err := g.Submit(Request{
		Model:      dnn.MustByName("MobileNet v1"),
		Conditions: conds(),
		Deadline:   now.Add(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	g.serveOne(w, <-w.queue)
	r := <-ch
	if r.Status != StatusExpired || r.Err != ErrDeadlineExpired {
		t.Fatalf("response: %+v", r)
	}
	if r.Decision.Measurement.LatencyS != 0 {
		t.Fatal("expired request executed")
	}
	if snap := g.Snapshot(); snap.Expired != 1 || snap.Served != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestServedRequestReadsClockThrice pins the gateway clock's readings per
// served request: admission, serve start (also the decide start) and decide
// end (also DoneAt), every one through cfg.Clock. A fake clock that ticks
// 1 ms per call therefore makes the queue and decide phases exactly 1 ms
// each, for an inline Do and a queued Submit alike.
func TestServedRequestReadsClockThrice(t *testing.T) {
	serves := map[string]func(*Gateway, Request) (Response, error){
		"inline Do": (*Gateway).Do,
		"queued Submit": func(g *Gateway, req Request) (Response, error) {
			ch, err := g.Submit(req)
			if err != nil {
				return Response{}, err
			}
			return <-ch, nil
		},
	}
	for name, serve := range serves {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			now, calls := time.Unix(1000, 0), 0
			clock := func() time.Time {
				mu.Lock()
				defer mu.Unlock()
				calls++
				now = now.Add(time.Millisecond)
				return now
			}
			g, err := New([]Backend{{Device: "Mi8Pro", Engine: testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())}},
				Config{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Shutdown(context.Background())
			mu.Lock()
			before := calls
			mu.Unlock()
			r, err := serve(g, Request{Model: dnn.MustByName("MobileNet v1"), Conditions: conds()})
			if err != nil || r.Status != StatusServed {
				t.Fatalf("response %+v, err %v", r, err)
			}
			mu.Lock()
			n := calls - before
			mu.Unlock()
			if n != 3 {
				t.Errorf("%d clock readings for one served request, want 3", n)
			}
			if r.WaitS != 0.001 {
				t.Errorf("queue phase %v s, want 0.001", r.WaitS)
			}
			if d := r.DoneAt.Sub(r.SubmittedAt); d != 2*time.Millisecond {
				t.Errorf("DoneAt - SubmittedAt = %v, want 2ms", d)
			}
			snap := g.Snapshot()
			for _, phase := range []string{obs.PhaseQueue, obs.PhaseDecide} {
				if h := snap.Phases[phase]; h.Count != 1 || h.Sum != 0.001 {
					t.Errorf("%s phase: %d observations summing to %v s, want 1 of 0.001", phase, h.Count, h.Sum)
				}
			}
		})
	}
}

// TestOutageCounting turns every offload into a simulated radio outage and
// checks the gateway records the sim's local fallback.
func TestOutageCounting(t *testing.T) {
	e := testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())
	e.World.OutageProb = 1
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown(context.Background())
	m := dnn.MustByName("MobileNet v3")
	sawOutage := false
	// Offloads only happen when epsilon-exploration (or a favourable random
	// Q init) picks a remote action, so give the loop enough attempts that
	// the remote-action draw is effectively certain for any seed.
	for i := 0; i < 2000 && !sawOutage; i++ {
		r, err := g.Do(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outage {
			sawOutage = true
			if r.Decision.Target.Location == sim.Local {
				t.Fatal("outage flagged on a local decision")
			}
			if r.Decision.Measurement.Target.Location != sim.Local {
				t.Fatal("outage measurement did not fall back to local")
			}
		}
	}
	if !sawOutage {
		t.Fatal("no outage in 2000 runs with OutageProb=1 (engine never offloaded?)")
	}
	if snap := g.Snapshot(); snap.Outages == 0 {
		t.Fatal("metrics missed the outages")
	}
}

// countingSink wraps a policy store and counts SaveNext calls per device.
type countingSink struct {
	inner policy.Sink
	mu    sync.Mutex
	saves map[string]int
}

func newCountingSink(inner policy.Sink) *countingSink {
	return &countingSink{inner: inner, saves: map[string]int{}}
}

func (c *countingSink) SaveNext(ck *policy.Checkpoint) (uint64, error) {
	c.mu.Lock()
	c.saves[ck.Device]++
	c.mu.Unlock()
	return c.inner.SaveNext(ck)
}

func (c *countingSink) Latest(device string) (*policy.Checkpoint, error) {
	return c.inner.Latest(device)
}

func (c *countingSink) count(device string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves[device]
}

func testStore(t testing.TB) *policy.Store {
	t.Helper()
	st, err := policy.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShutdownDrainsAndCheckpoints checks graceful shutdown: queued requests
// still execute (workers are mid-request when the drain begins), Submit is
// rejected afterwards, and every worker's final Q-table reaches the
// checkpoint store exactly once — a second Shutdown must not re-flush.
func TestShutdownDrainsAndCheckpoints(t *testing.T) {
	sink := newCountingSink(testStore(t))
	g := testGateway(t, Config{QueueDepth: 256, Checkpoints: sink})
	m := dnn.MustByName("MobileNet v1")
	var chans []<-chan Response
	for i := 0; i < 40; i++ {
		ch, err := g.Submit(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// The workers are still chewing through the queues here, so the drain
	// below overlaps in-flight request execution.
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		r := <-ch
		if r.Status != StatusServed {
			t.Fatalf("request %d not drained: %+v", i, r)
		}
	}
	if _, err := g.Submit(Request{Model: m, Conditions: conds()}); err != ErrClosed {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
	if err := g.Shutdown(context.Background()); err != ErrClosed {
		t.Fatalf("second shutdown: %v, want ErrClosed", err)
	}
	for _, dev := range g.Devices() {
		if got := sink.count(dev); got != 1 {
			t.Errorf("device %s checkpointed %d times at shutdown, want exactly 1", dev, got)
		}
		ck, err := sink.Latest(dev)
		if err != nil {
			t.Fatalf("no checkpoint for %s: %v", dev, err)
		}
		if ck.States == 0 || ck.Meta.TotalVisits() == 0 {
			t.Errorf("%s checkpoint carries no learning: %+v", dev, ck.Meta)
		}
		if ck.Generation != 1 {
			t.Errorf("%s checkpoint generation = %d, want 1", dev, ck.Generation)
		}
	}
}

// syncOnce runs one federation pass over g's lanes through a syncer wired
// the way the routing tier wires its own: the gateway's PolicyNodes against
// the checkpoint sink.
func syncOnce(t *testing.T, sink policy.Sink, g *Gateway, cfg policy.SyncConfig) policy.Report {
	t.Helper()
	s, err := policy.NewSyncer(sink, g.PolicyNodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.SyncOnce()
}

// TestWarmStartFromStore checks that a new gateway resumes each device from
// its latest valid checkpoint, and that an unknown device falls back to the
// fleet's merged policy for its config hash.
func TestWarmStartFromStore(t *testing.T) {
	st := testStore(t)
	g := testGateway(t, Config{Checkpoints: st})
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 30; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds(), Device: "Mi8Pro"}); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.WarmStarts()) != 0 {
		t.Fatalf("fresh store produced warm-starts: %v", g.WarmStarts())
	}
	if rep := syncOnce(t, st, g, policy.SyncConfig{}); rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart the same device: it must resume from its latest generation
	// (gen 2: one sync pass + the shutdown flush).
	e2 := testEngine(t, soc.Mi8Pro(), 7, core.DefaultConfig())
	g2, err := New([]Backend{{Device: "Mi8Pro", Engine: e2}}, Config{Checkpoints: st})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Shutdown(context.Background())
	gen, ok := g2.WarmStarts()["Mi8Pro"]
	if !ok || gen != 2 {
		t.Fatalf("restarted device warm-start generation = %d (ok=%v), want 2", gen, ok)
	}
	if e2.Agent().TotalVisits() == 0 {
		t.Fatal("restarted engine resumed with no experience")
	}

	// A brand-new device name with the same engine config warm-starts from
	// the merged fleet policy.
	e3 := testEngine(t, soc.Mi8Pro(), 8, core.DefaultConfig())
	g3, err := New([]Backend{{Device: "brand-new", Engine: e3}}, Config{Checkpoints: st})
	if err != nil {
		t.Fatal(err)
	}
	defer g3.Shutdown(context.Background())
	if _, ok := g3.WarmStarts()["brand-new"]; !ok {
		t.Fatal("new device did not warm-start from the merged fleet policy")
	}
	if e3.Agent().TotalVisits() == 0 {
		t.Fatal("new engine inherited no fleet experience")
	}
}

// TestFrozenGatewayStaysFrozenAcrossSync: a federation pass warm-starts the
// lane that has not decided yet from the merged fleet policy; on a frozen
// gateway that restore must leave autoscale_rl_frozen at 1.
func TestFrozenGatewayStaysFrozenAcrossSync(t *testing.T) {
	trained := testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())
	cold := testEngine(t, soc.Mi8Pro(), 2, core.DefaultConfig())
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 30; i++ {
		if _, err := trained.RunInferenceCtx(nil, m, conds()); err != nil {
			t.Fatal(err)
		}
	}
	trained.Freeze()
	cold.Freeze()
	st := testStore(t)
	g, err := New([]Backend{{Device: "trained", Engine: trained}, {Device: "cold", Engine: cold}},
		Config{Checkpoints: st})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown(context.Background()) //nolint:errcheck
	rep := syncOnce(t, st, g, policy.SyncConfig{})
	if rep.Err() != nil {
		t.Fatalf("sync: %v", rep.Err())
	}
	if len(rep.WarmStarted) != 1 || rep.WarmStarted[0] != "cold" {
		t.Fatalf("warm-started %v, want [cold]", rep.WarmStarted)
	}
	var p obs.Prom
	AppendProm(&p, g.Snapshot(), g.Health())
	for _, dev := range []string{"trained", "cold"} {
		if want := `autoscale_rl_frozen{device="` + dev + `"} 1`; !strings.Contains(string(p.Bytes()), want) {
			t.Errorf("/metrics missing %s after the sync pass", want)
		}
	}
}

// TestRouting covers pinned-device routing and the unknown-device failure.
func TestRouting(t *testing.T) {
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background())
	m := dnn.MustByName("MobileNet v1")
	r, err := g.Do(Request{Model: m, Conditions: conds(), Device: "GalaxyS10e"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Device != "GalaxyS10e" {
		t.Fatalf("pinned request served by %s", r.Device)
	}
	r, err = g.Do(Request{Model: m, Conditions: conds(), Device: "Pixel"})
	if r.Status != StatusFailed || err == nil {
		t.Fatalf("unknown device: %+v, err %v", r, err)
	}
	if snap := g.Snapshot(); snap.Failed != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestNewValidation covers constructor misuse.
func TestNewValidation(t *testing.T) {
	e := testEngine(t, soc.Mi8Pro(), 1, core.DefaultConfig())
	cases := []struct {
		name     string
		backends []Backend
		cfg      Config
	}{
		{"no backends", nil, Config{}},
		{"nil engine", []Backend{{Device: "a"}}, Config{}},
		{"empty name", []Backend{{Engine: e}}, Config{}},
		{"duplicate", []Backend{{Device: "a", Engine: e}, {Device: "a", Engine: e}}, Config{}},
		{"negative queue", []Backend{{Device: "a", Engine: e}}, Config{QueueDepth: -1}},
		{"bad shed", []Backend{{Device: "a", Engine: e}}, Config{Shed: ShedPolicy(9)}},
	}
	for _, c := range cases {
		if _, err := New(c.backends, c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := New([]Backend{{Device: "a", Engine: e}}, Config{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestSubmitNilModel covers request misuse.
func TestSubmitNilModel(t *testing.T) {
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background())
	if _, err := g.Submit(Request{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

// hedgeWorker builds a single-device hedging gateway without starting the
// worker goroutine, so tests can drive the hedge helper directly with fully
// controlled decisions.
func hedgeWorker(t testing.TB, e *core.Engine) (*Gateway, *worker) {
	t.Helper()
	g, err := newGateway([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	w := g.workers[0]
	w.seq = 1
	return g, w
}

// TestHedgeOutcomes drives the hedged-offload race with remote latencies on
// either side of the 25 ms hedge point: a remote answer under it is never
// hedged, a slow one loses to the local leg, and one just over it wins but
// still pays the cancelled leg's in-flight energy.
func TestHedgeOutcomes(t *testing.T) {
	cloud := sim.Target{Location: sim.Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	m := dnn.MustByName("MobileNet v3")
	p := &pending{req: Request{Model: m, Conditions: conds()}}
	remote := func(latencyS, energyJ float64) core.Decision {
		return core.Decision{Target: cloud,
			Measurement: sim.Measurement{Target: cloud, LatencyS: latencyS, EnergyJ: energyJ}, QoSTargetS: 0.05}
	}

	t.Run("fast remote is not hedged", func(t *testing.T) {
		e := testEngine(t, soc.Mi8Pro(), 26, core.DefaultConfig())
		g, w := hedgeWorker(t, e)
		d := remote(0.024, 0.01)
		want := d
		if hedged, won, _ := g.hedge(w, p, &d, e.Now(), g.now()); hedged || won {
			t.Fatalf("hedged=%v won=%v, want no hedge under a 24 ms remote", hedged, won)
		}
		if d != want {
			t.Errorf("an unhedged decision changed: %+v", d)
		}
		if snap := g.Snapshot(); snap.Hedges != 0 {
			t.Errorf("metrics: %+v", snap)
		}
	})

	t.Run("local leg wins", func(t *testing.T) {
		e := testEngine(t, soc.Mi8Pro(), 24, core.DefaultConfig())
		g, w := hedgeWorker(t, e)
		d := remote(10, 1)
		hedged, won, _ := g.hedge(w, p, &d, e.Now(), g.now())
		if !hedged || !won {
			t.Fatalf("hedged=%v won=%v, want the local leg to beat a 10 s remote", hedged, won)
		}
		if d.Measurement.Target.Location != sim.Local {
			t.Errorf("winning measurement ran on %v, want local", d.Measurement.Target)
		}
		if d.Measurement.WastedJ <= 0 {
			t.Error("the superseded remote leg's in-flight energy must be charged as waste")
		}
		if snap := g.Snapshot(); snap.Hedges != 1 || snap.HedgesWon != 1 {
			t.Errorf("metrics: %+v", snap)
		}
	})

	t.Run("remote answers first", func(t *testing.T) {
		e := testEngine(t, soc.Mi8Pro(), 25, core.DefaultConfig())
		g, w := hedgeWorker(t, e)
		d := remote(0.026, 0.01)
		before := d.Measurement.EnergyJ
		hedged, won, _ := g.hedge(w, p, &d, e.Now(), g.now())
		if !hedged || won {
			t.Fatalf("hedged=%v won=%v, want a lost hedge against a 26 ms remote", hedged, won)
		}
		if d.Measurement.Target != cloud {
			t.Errorf("losing hedge replaced the remote answer: %v", d.Measurement.Target)
		}
		if d.Measurement.EnergyJ <= before || d.Measurement.WastedJ <= 0 {
			t.Errorf("cancelled local leg not charged: energy %v (was %v), wasted %v",
				d.Measurement.EnergyJ, before, d.Measurement.WastedJ)
		}
		if snap := g.Snapshot(); snap.Hedges != 1 || snap.HedgesLost != 1 {
			t.Errorf("metrics: %+v", snap)
		}
	})
}

// TestScriptedDrills fires the one-shot fault events: a checkpoint-corruption
// drill followed by a worker crash, after which the worker must keep serving
// from a fresh (re-warm-started) agent.
func TestScriptedDrills(t *testing.T) {
	st := testStore(t)
	sched := &fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindCheckpointCorrupt, Device: "Mi8Pro", StartS: 0},
		{Kind: fault.KindWorkerCrash, Device: "Mi8Pro", StartS: 0},
	}}
	e := testEngine(t, soc.Mi8Pro(), 28, core.DefaultConfig())
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{
		Checkpoints: st,
		Faults:      fault.New(sched, exec.NewRoot(28).Child("faults")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown(context.Background())
	m := dnn.MustByName("MobileNet v3")
	r, err := g.Do(Request{Model: m, Conditions: conds()})
	if err != nil || r.Status != StatusServed {
		t.Fatalf("serve after drills: %+v, err %v", r, err)
	}
	snap := g.Snapshot()
	if snap.CorruptDrills != 1 {
		t.Errorf("corrupt drills = %d, want 1", snap.CorruptDrills)
	}
	if snap.WorkerCrashes != 1 {
		t.Errorf("worker crashes = %d, want 1", snap.WorkerCrashes)
	}
	// The gateway must stay healthy after the crash.
	for i := 0; i < 20; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d after crash: %v", i, err)
		}
	}
}
