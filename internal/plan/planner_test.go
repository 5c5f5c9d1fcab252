package plan

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func conds() sim.Conditions { return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55} }

// newTestRouter builds a one-shard router with the given lane count and a
// tenant per default class.
func newTestRouter(t testing.TB, lanes int, seed int64) *router.Router {
	t.Helper()
	backends := make([]serve.Backend, 0, lanes)
	for i := 0; i < lanes; i++ {
		w, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seed+int64(i)), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, serve.Backend{Device: "lane-" + string(rune('a'+i)), Engine: w})
	}
	gw, err := serve.New(backends, serve.Config{Name: "shard-a"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New([]router.ShardGateway{{Name: "shard-a", Gateway: gw}}, router.Config{
		Tenants: Tenants(DefaultClasses()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	return rt
}

func doReq(t testing.TB, rt *router.Router, tenant string, arrivalS float64) serve.Response {
	t.Helper()
	r, err := rt.Do(serve.Request{
		Model:      dnn.MustByName("MobileNet v3"),
		Conditions: conds(),
		Tenant:     tenant,
		ArrivalS:   arrivalS,
	})
	if err != nil {
		t.Fatalf("request (tenant=%s arrival=%.2f): %v", tenant, arrivalS, err)
	}
	return r
}

func TestNewAppliesClassPolicy(t *testing.T) {
	rt := newTestRouter(t, 2, 11)
	if _, err := New(rt, Config{Classes: DefaultClasses()}); err != nil {
		t.Fatal(err)
	}
	want := map[string]Class{}
	for _, c := range DefaultClasses() {
		want[c.Name] = c
	}
	seen := 0
	for _, tq := range rt.TenantQueues() {
		c, ok := want[tq.Tenant]
		if !ok {
			continue
		}
		seen++
		if tq.Weight != c.Weight {
			t.Errorf("class %s weight = %d, want %d", c.Name, tq.Weight, c.Weight)
		}
		if tq.MaxVWaitS != c.MaxQueueS {
			t.Errorf("class %s admission gate = %g, want %g", c.Name, tq.MaxVWaitS, c.MaxQueueS)
		}
	}
	if seen != len(want) {
		t.Fatalf("only %d of %d classes have router tenants", seen, len(want))
	}
}

func TestNewRejectsUnknownTenant(t *testing.T) {
	rt := newTestRouter(t, 1, 12)
	_, err := New(rt, Config{Classes: []Class{{Name: "platinum", TargetP95S: 0.1, Weight: 8, MaxQueueS: 4}}})
	if err == nil {
		t.Fatal("New accepted a class with no router tenant")
	}
}

func TestMaybeTickInterval(t *testing.T) {
	rt := newTestRouter(t, 2, 13)
	p, err := New(rt, Config{Classes: DefaultClasses(), IntervalS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d, ticked := p.MaybeTick(0); !ticked || d.Generation != 1 {
		t.Fatalf("first tick: ticked=%v gen=%d, want true/1", ticked, d.Generation)
	}
	if _, ticked := p.MaybeTick(0.5); ticked {
		t.Fatal("mid-interval call recomputed")
	}
	if d, ticked := p.MaybeTick(1.0); !ticked || d.Generation != 2 {
		t.Fatalf("interval-boundary tick: ticked=%v gen=%d, want true/2", ticked, d.Generation)
	}
	if d := p.Status().Decision; d.Generation != 2 {
		t.Fatalf("Status().Decision generation = %d, want 2", d.Generation)
	}
}

func TestPlannerHoldsWithoutEstimates(t *testing.T) {
	rt := newTestRouter(t, 4, 14)
	rt.SetActiveLanes(2)
	p, err := New(rt, Config{Classes: DefaultClasses()})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := p.MaybeTick(0)
	if !d.Held {
		t.Fatalf("tick with no traffic not held: %+v", d)
	}
	if got := rt.ActiveLanes(); got != 2 {
		t.Fatalf("held tick moved active lanes to %d", got)
	}
}

// TestPlannerScalesUpRateLimited drives saturating gold traffic through a
// deliberately under-provisioned router and checks the planner scales active
// lanes toward capacity — but never faster than MaxStepFactor per tick — and
// keeps the budget and per-class queue depths in step.
func TestPlannerScalesUpRateLimited(t *testing.T) {
	rt := newTestRouter(t, 4, 15)
	rt.SetActiveLanes(1)
	p, err := New(rt, Config{Classes: DefaultClasses(), IntervalS: 1, MaxStepFactor: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Probe the simulated service time so the offered load saturates the
	// fleet regardless of the hardware model's absolute speed.
	for i := 0; i < 20; i++ {
		doReq(t, rt, "gold", 0.001*float64(i+1))
	}
	snap := rt.Snapshot()
	svc := snap.Latency.Sum / float64(snap.Latency.Count)
	if svc <= 0 {
		t.Fatalf("probe measured service time %g", svc)
	}
	p.MaybeTick(0.5) // prime estimators past the probe traffic

	// Arrivals at 2x a single lane's service rate: past the utilization
	// ceiling for anything under four lanes, so the model wants all of
	// them. (Not so hot that the sequential driver builds enough virtual
	// backlog to trip the gold admission gate.)
	lambda := 2 / svc
	n := int(lambda)
	drive := func(from float64) {
		arrival := from
		for i := 0; i < n; i++ {
			arrival += 1 / lambda
			doReq(t, rt, "gold", arrival)
		}
	}
	drive(0.5)
	d, ticked := p.MaybeTick(1.5)
	if !ticked || d.Held {
		t.Fatalf("loaded tick did not plan: ticked=%v %+v", ticked, d)
	}
	if d.TotalRateHz < lambda/2 {
		t.Fatalf("estimated rate %.1f/s for %d arrivals in 1s", d.TotalRateHz, n)
	}
	if d.ActiveLanes != 2 {
		t.Fatalf("first loaded tick applied %d lanes, want 2 (rate-limited from 1)", d.ActiveLanes)
	}
	if got := rt.ActiveLanes(); got != 2 {
		t.Fatalf("router active lanes = %d, want 2", got)
	}
	if d.Budget != 4 {
		t.Fatalf("budget = %d, want 2x lanes = 4", d.Budget)
	}
	if len(d.QueueDepth) != len(DefaultClasses()) {
		t.Fatalf("queue depths for %d classes, want %d", len(d.QueueDepth), len(DefaultClasses()))
	}

	// A second loaded window keeps demand high; the next tick doubles again.
	drive(1.5)
	d, _ = p.MaybeTick(2.5)
	if d.ActiveLanes != 4 {
		t.Fatalf("second loaded tick applied %d lanes, want 4", d.ActiveLanes)
	}
	if d.PredictedOccupancy <= 0 || d.PredictedOccupancy > 1 {
		t.Fatalf("predicted occupancy %g out of (0,1]", d.PredictedOccupancy)
	}
	if d.MeasuredOccupancy <= 0 {
		t.Fatalf("measured occupancy %g, want > 0 after a served window", d.MeasuredOccupancy)
	}
}

func TestPlannerSurgeLookahead(t *testing.T) {
	sched := &fault.Schedule{Name: "surge", Faults: []fault.Spec{
		{Kind: fault.KindLoadSurge, StartS: 10, EndS: 20, Factor: 4},
	}}
	inj := fault.New(sched, exec.NewRoot(1).Child("faults"))
	rt := newTestRouter(t, 4, 16)
	p, err := New(rt, Config{Classes: DefaultClasses(), IntervalS: 1, SurgeLookaheadS: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := p.MaybeTick(0)
	if d.SurgeFactor != 1 {
		t.Fatalf("surge factor %g with the surge 10s away", d.SurgeFactor)
	}
	// At t=9 the lookahead window [9, 11) contains the surge start.
	d, _ = p.MaybeTick(9)
	if d.SurgeFactor != 4 {
		t.Fatalf("surge factor %g at t=9 with lookahead 2, want 4", d.SurgeFactor)
	}
}

// TestPlanAdmin checks the planner's admin view: /plan serves the status
// document and /metrics carries the autoscale_plan_* series.
func TestPlanAdmin(t *testing.T) {
	rt := newTestRouter(t, 2, 17)
	p, err := New(rt, Config{Classes: DefaultClasses()})
	if err != nil {
		t.Fatal(err)
	}
	doReq(t, rt, "gold", 0.01)
	p.MaybeTick(1)

	a, err := serve.ServeAdmin(rt, "127.0.0.1:0", rt.AdminView(), p.AdminView())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + a.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/plan")
	if code != http.StatusOK {
		t.Fatalf("/plan status %d: %s", code, body)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/plan is not a Status document: %v", err)
	}
	if st.Decision.Generation != 1 || len(st.Classes) != 3 {
		t.Fatalf("/plan decision gen=%d classes=%d, want 1/3", st.Decision.Generation, len(st.Classes))
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, name := range []string{
		"autoscale_plan_generation", "autoscale_plan_active_lanes",
		"autoscale_plan_budget", "autoscale_plan_surge_factor",
		"autoscale_plan_class_target_p95_seconds",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

func BenchmarkPlannerRecompute(b *testing.B) {
	rt := newTestRouter(b, 4, 18)
	p, err := New(rt, Config{Classes: DefaultClasses(), IntervalS: 1})
	if err != nil {
		b.Fatal(err)
	}
	arrival := 0.0
	for i := 0; i < 200; i++ {
		arrival += 0.01
		doReq(b, rt, DefaultClasses()[i%3].Name, arrival)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each call crosses an interval boundary, so every iteration is a
		// full estimation -> model -> actuation recompute.
		p.MaybeTick(float64(i + 1))
	}
}
