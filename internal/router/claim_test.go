package router

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/dnn"
	"autoscale/internal/serve"
)

// A Router.Do whose own pump sends its request to an idle lane claims the
// lane under the dispatch mutex and serves the request, completion included,
// on its own goroutine once the mutex is released. Everything else still
// queues on the shard. Run these with -race -count=10.

// within runs a lifecycle call that must return, failing the test if it
// hangs: a claim that never releases the gateway's in-flight count stalls
// Kill and Shutdown for good.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// parkSink holds the lane that serves it inside Deliver until release is
// closed. A request shed at admission is delivered on the submitter, so it
// only reports the shed.
type parkSink struct{ entered, release, shed chan struct{} }

func (s *parkSink) Deliver(r *serve.Response) {
	if r.Status != serve.StatusServed {
		s.shed <- struct{}{}
		return
	}
	close(s.entered)
	<-s.release
}

// routed is one request of the router stress and how it ended.
type routed struct {
	device string // pinned lane; empty when unpinned
	ch     <-chan serve.Response
	resp   serve.Response
	done   bool // resp holds the outcome
}

// TestRouterEntryPointsStress races Router.Do and Router.Submit from eight
// goroutines, pinned and unpinned, over three two-lane shards with depth-2
// queues, while one shard is killed, another drained and revived, and the
// router finally shut down. Every accepted request must be answered exactly
// once and the router's books must balance; nothing may stay in flight or
// busy on any lane; and on the one shard that never moves, each goroutine's
// pinned requests complete in order, and every lane executes its requests
// in the order the shard admitted them, claims included.
func TestRouterEntryPointsStress(t *testing.T) {
	gcfg := serve.Config{QueueDepth: 2}
	gwA := testShard(t, "shard-a", []string{"lane-a0", "lane-a1"}, 1, gcfg)
	var gwMu sync.Mutex
	gws := []*serve.Gateway{
		gwA,
		testShard(t, "shard-b", []string{"lane-b0", "lane-b1"}, 3, gcfg),
		testShard(t, "shard-c", []string{"lane-c0", "lane-c1"}, 5, gcfg),
	}
	rt, err := New([]ShardGateway{{"shard-a", gws[0]}, {"shard-b", gws[1]}, {"shard-c", gws[2]}}, Config{
		GlobalBudget:  16,
		EngineFactory: rehomeFactory,
		ShardFactory: func(name string, devices []string) (*serve.Gateway, error) {
			gw := testShard(t, name, devices, 7, gcfg)
			gwMu.Lock()
			gws = append(gws, gw)
			gwMu.Unlock()
			return gw, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	pins := []string{"lane-a0", "lane-a1", "lane-b0", "lane-c0", ""}
	m := dnn.MustByName("MobileNet v3")
	var flood sync.WaitGroup
	reqs := make([][]*routed, clients)
	for c := 0; c < clients; c++ {
		flood.Add(1)
		go func(c int) {
			defer flood.Done()
			var outstanding []*routed
			// settle collects this goroutine's Submit responses, so it never
			// has more than a few requests in flight.
			settle := func() bool {
				for _, s := range outstanding {
					select {
					case s.resp = <-s.ch:
						s.done = true
					case <-time.After(30 * time.Second):
						t.Errorf("client %d: a Submit was never answered", c)
						return false
					}
				}
				outstanding = outstanding[:0]
				return true
			}
			for i := 0; ; i++ {
				s := &routed{device: pins[(c+i/3)%len(pins)]}
				req := serve.Request{Model: m, Conditions: conds(), Device: s.device}
				var err error
				if (c+i)%2 == 0 {
					s.resp, err = rt.Do(req)
					s.done = true
				} else {
					s.ch, err = rt.Submit(req)
				}
				if errors.Is(err, serve.ErrClosed) {
					settle()
					return
				}
				if err != nil && !s.done {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				reqs[c] = append(reqs[c], s)
				if s.ch != nil {
					outstanding = append(outstanding, s)
				}
				if len(outstanding) >= 4 && !settle() {
					return
				}
				runtime.Gosched()
			}
		}(c)
	}
	progress := func(n uint64) {
		from := rt.RouterMetrics().Completed
		for limit := time.Now().Add(30 * time.Second); rt.RouterMetrics().Completed < from+n; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(limit) {
				t.Fatalf("no progress: %+v", rt.RouterMetrics())
			}
		}
	}
	progress(2000)
	// The kill finds lane-b0's requests queued behind a parked worker, so
	// they bounce and fail over.
	park := &parkSink{entered: make(chan struct{}), release: make(chan struct{}), shed: make(chan struct{}, 1)}
	for parked := false; !parked; {
		if err := gws[1].SubmitTo(serve.Request{Model: m, Conditions: conds(), Device: "lane-b0"}, park); err != nil {
			t.Fatal(err)
		}
		select {
		case <-park.entered:
			parked = true
		case <-park.shed: // lane-b0's queue was full: try again
		}
	}
	for limit := time.Now().Add(30 * time.Second); gws[1].Snapshot().QueueDepth < 2; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(limit) {
			close(park.release)
			t.Fatalf("lane-b0 never queued behind the parked worker: %+v", rt.RouterMetrics())
		}
	}
	go func() {
		for !gws[1].Closed() {
			time.Sleep(50 * time.Microsecond)
		}
		close(park.release)
	}()
	within(t, "KillShard", func() error { return rt.KillShard("shard-b") })
	progress(2000)
	within(t, "DrainShard", func() error { return rt.DrainShard(context.Background(), "shard-c") })
	progress(2000)
	within(t, "ReviveShard", func() error { return rt.ReviveShard("shard-c") })
	progress(2000)
	within(t, "Shutdown", func() error { return rt.Shutdown(context.Background()) })
	flood.Wait()
	if t.Failed() {
		return
	}

	var accepted int
	type served struct{ submitted, done time.Time }
	byLane := map[string][]served{}
	for c := range reqs {
		last := map[string]time.Time{}
		for i, s := range reqs[c] {
			accepted++
			if !s.done {
				t.Fatalf("client %d request %d: never answered", c, i)
			}
			if s.ch != nil {
				select {
				case r := <-s.ch:
					t.Fatalf("client %d request %d answered twice: %+v", c, i, r)
				default:
				}
			}
			r := s.resp
			if r.Status != serve.StatusServed {
				continue
			}
			if s.device != "" && r.Device != s.device {
				t.Fatalf("client %d request %d pinned to %q served on %q", c, i, s.device, r.Device)
			}
			if r.Device != "lane-a0" && r.Device != "lane-a1" {
				continue // lanes that re-homed: a failed-over request may finish after a later one
			}
			byLane[r.Device] = append(byLane[r.Device], served{r.SubmittedAt, r.DoneAt})
			if s.device != "" {
				if r.DoneAt.Before(last[s.device]) {
					t.Fatalf("client %d request %d on %s completed before an earlier request", c, i, s.device)
				}
				last[s.device] = r.DoneAt
			}
		}
	}
	// The router admits to a shard only under its dispatch mutex, so a
	// shard's admission readings are its admission order, and a lane must
	// execute in it: FIFO for queued requests, and a claim before anything
	// admitted after it.
	for lane, ss := range byLane {
		sort.Slice(ss, func(i, j int) bool { return ss[i].submitted.Before(ss[j].submitted) })
		for i := 1; i < len(ss); i++ {
			if ss[i].done.Before(ss[i-1].done) {
				t.Fatalf("%s executed a request admitted at %v before one admitted at %v",
					lane, ss[i].submitted, ss[i-1].submitted)
			}
		}
	}

	checkQuiet(t, rt, accepted)
	met := rt.RouterMetrics()
	if met.ShardKills != 1 || met.ShardDrains != 1 || met.Revives != 1 {
		t.Errorf("lifecycle accounting %+v", met)
	}
	if met.Failovers == 0 {
		t.Error("no failover though a shard was killed mid-traffic")
	}
	for _, gw := range gws {
		if b := gw.Busy(); b != 0 {
			t.Errorf("a lane of %v ends with busy %d", gw.Devices(), b)
		}
	}
}

// TestClaimServesOffDispatchMutex drives sequential Router.Do calls whose
// lanes are always idle, so each one claims its lane, and reads the dispatch
// mutex from the shard's clock. Of a served request's three gateway clock
// readings, admission runs under the caller's pump, but serve start and
// decide end belong to the inline serve, which must run with dmu released.
func TestClaimServesOffDispatchMutex(t *testing.T) {
	var router atomic.Pointer[Router]
	var mu sync.Mutex
	var held []bool // per clock reading: was dmu held?
	clock := func() time.Time {
		if rt := router.Load(); rt != nil {
			free := rt.dmu.TryLock()
			if free {
				rt.dmu.Unlock()
			}
			mu.Lock()
			held = append(held, !free)
			mu.Unlock()
		}
		return time.Now()
	}
	gw := testShard(t, "shard-a", []string{"lane-a0", "lane-a1"}, 1, serve.Config{Clock: clock})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	router.Store(rt)
	m := dnn.MustByName("MobileNet v3")
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := rt.Do(serve.Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatal(err)
		}
	}
	router.Store(nil)
	if d := gw.Snapshot().QueueMaxDepth; d != 0 {
		t.Fatalf("queue high watermark %d: a sequential Do was queued, not claimed", d)
	}
	if len(held) != 3*n {
		t.Fatalf("%d clock readings for %d served requests, want 3 each", len(held), n)
	}
	for i := 0; i < n; i++ {
		if r := held[3*i : 3*i+3]; !r[0] || r[1] || r[2] {
			t.Fatalf("request %d: dmu held at admission, serve start, decide end = %v; want true, false, false", i, r)
		}
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
