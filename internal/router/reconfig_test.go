package router

import (
	"context"
	"errors"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/serve"
)

// Satellite coverage: admission under live reconfiguration. Shrinking a
// tenant's queue depth or the global in-flight budget while requests are
// queued must shed deterministically — every request gets exactly one
// terminal response, nothing is stranded, and the in-flight gauge returns
// to zero.

func TestQueueDepthShrinkEvictsNewestDeterministically(t *testing.T) {
	rt := pausedRouter(Config{TenantQueueDepth: 8, Shed: serve.ShedNewest})
	m := dnn.MustByName("MobileNet v3")
	var chans []<-chan serve.Response
	for i := 0; i < 6; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}

	evicted, err := rt.SetTenantQueueDepth(DefaultTenant, 2)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 4 {
		t.Fatalf("shrink 6 -> 2 evicted %d, want 4", evicted)
	}
	// ShedNewest evicts from the tail: the four newest submissions get one
	// terminal shed response each, the two oldest stay queued untouched.
	for i, ch := range chans {
		select {
		case r := <-ch:
			if i < 2 {
				t.Fatalf("surviving request %d terminated by the shrink: %+v", i, r)
			}
			if r.Status != serve.StatusShed || !errors.Is(r.Err, serve.ErrQueueFull) {
				t.Fatalf("evicted request %d got %+v, want shed", i, r)
			}
		default:
			if i >= 2 {
				t.Fatalf("evicted request %d got no terminal response", i)
			}
		}
	}
	// Books balance: exactly one shed per eviction, queue at the new bound.
	if got := rt.RouterMetrics().Shed; got != 4 {
		t.Fatalf("shed counter = %d, want 4 (no double count)", got)
	}
	rows := rt.TenantQueues()
	for _, row := range rows {
		if row.Tenant == DefaultTenant {
			if row.Queued != 2 || row.Depth != 2 {
				t.Fatalf("after shrink: queued=%d depth=%d, want 2/2", row.Queued, row.Depth)
			}
		}
	}
}

func TestQueueDepthShrinkShedOldest(t *testing.T) {
	rt := pausedRouter(Config{TenantQueueDepth: 8, Shed: serve.ShedOldest})
	m := dnn.MustByName("MobileNet v3")
	var chans []<-chan serve.Response
	for i := 0; i < 5; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if evicted, err := rt.SetTenantQueueDepth(DefaultTenant, 2); err != nil || evicted != 3 {
		t.Fatalf("shrink evicted %d (err %v), want 3", evicted, err)
	}
	// ShedOldest evicts from the head: submissions 0..2 shed, 3..4 survive.
	for i, ch := range chans {
		select {
		case r := <-ch:
			if i >= 3 || r.Status != serve.StatusShed {
				t.Fatalf("request %d got %+v", i, r)
			}
		default:
			if i < 3 {
				t.Fatalf("evicted request %d got no terminal response", i)
			}
		}
	}
}

func TestQueueDepthGrowEvictsNothing(t *testing.T) {
	rt := pausedRouter(Config{TenantQueueDepth: 4})
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit(serve.Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatal(err)
		}
	}
	if evicted, err := rt.SetTenantQueueDepth(DefaultTenant, 16); err != nil || evicted != 0 {
		t.Fatalf("grow evicted %d (err %v), want 0", evicted, err)
	}
	if got := rt.RouterMetrics().Shed; got != 0 {
		t.Fatalf("grow shed %d requests", got)
	}
}

// TestBudgetShrinkUnderLoad shrinks the global in-flight budget while a
// burst is queued: no request may be stranded (every submission terminates)
// or double-counted, and the in-flight gauge must drain to zero.
func TestBudgetShrinkUnderLoad(t *testing.T) {
	gw := testShard(t, "shard-a", []string{"lane-a", "lane-b"}, 1, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{GlobalBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	const n = 24
	var chans []<-chan serve.Response
	for i := 0; i < n; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if got := rt.SetGlobalBudget(1); got != 1 {
		t.Fatalf("SetGlobalBudget(1) applied %d", got)
	}
	served := 0
	for i, ch := range chans {
		r := <-ch
		if r.Status != serve.StatusServed {
			t.Fatalf("request %d terminated %+v under budget shrink, want served (shrink never sheds)", i, r)
		}
		served++
	}
	if served != n {
		t.Fatalf("served %d of %d", served, n)
	}
	if got := rt.Inflight(); got != 0 {
		t.Fatalf("in-flight gauge = %d after drain, want 0", got)
	}
	met := rt.RouterMetrics()
	if met.Shed != 0 || met.Failed != 0 {
		t.Fatalf("budget shrink shed/failed requests: %+v", met)
	}
	if met.Dispatched != n {
		t.Fatalf("dispatched %d, want %d (no double dispatch)", met.Dispatched, n)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionGateReconfiguration flips a tenant's admission-wait gate on
// and off against a real backlog and checks sheds are a pure function of
// (gate, backlog).
func TestAdmissionGateReconfiguration(t *testing.T) {
	gw := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	m := dnn.MustByName("MobileNet v3")

	// Build a real virtual backlog: serve stamped requests sequentially so
	// the lane clock runs ahead of early arrival stamps.
	for i := 0; i < 30; i++ {
		if _, err := rt.Do(serve.Request{Model: m, Conditions: conds(), ArrivalS: 0.001 * float64(i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	backlog := rt.MinBacklogS(0.01)
	if backlog <= 0.05 {
		t.Fatalf("backlog %.3fs too small to exercise the gate", backlog)
	}

	// Gate on, stale arrival: shed at admission.
	if err := rt.SetAdmissionWait(DefaultTenant, 0.05); err != nil {
		t.Fatal(err)
	}
	r, _ := rt.Do(serve.Request{Model: m, Conditions: conds(), ArrivalS: 0.01})
	if r.Status != serve.StatusShed {
		t.Fatalf("gated stale arrival got %+v, want shed", r)
	}

	// Gate on, fresh arrival (no backlog relative to it): admitted.
	fresh := gw.MinLaneClock() + 1
	if r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), ArrivalS: fresh}); err != nil || r.Status != serve.StatusServed {
		t.Fatalf("gated fresh arrival got %+v (err %v), want served", r, err)
	}

	// Gate off: the stale arrival is admitted again.
	if err := rt.SetAdmissionWait(DefaultTenant, 0); err != nil {
		t.Fatal(err)
	}
	if r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), ArrivalS: 0.01}); err != nil || r.Status != serve.StatusServed {
		t.Fatalf("ungated stale arrival got %+v (err %v), want served", r, err)
	}

	// Unknown tenants are rejected loudly.
	if err := rt.SetAdmissionWait("nope", 1); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("SetAdmissionWait(unknown) = %v, want ErrUnknownTenant", err)
	}
	if _, err := rt.SetTenantQueueDepth("nope", 1); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("SetTenantQueueDepth(unknown) = %v, want ErrUnknownTenant", err)
	}
	if err := rt.SetTenantWeight("nope", 1); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("SetTenantWeight(unknown) = %v, want ErrUnknownTenant", err)
	}
}
