package router

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// The dispatch and completion handoffs: a submitter dispatches its own
// request when it can take the dispatch mutex, a shard's worker runs the
// completion of a queued request (a Do serving its claimed lane runs its
// own, claim_test.go), and the dispatcher goroutine is only the fallback
// for both. Run these with -race -count=10.

func rehomeFactory(lane string) (*core.Engine, error) {
	return core.NewEngine(sim.NewWorld(soc.Mi8Pro(), 9), core.DefaultConfig())
}

// checkQuiet asserts the books of a router with no request outstanding:
// exactly-once conservation and an empty in-flight gauge.
func checkQuiet(t *testing.T, rt *Router, want int) {
	t.Helper()
	met := rt.RouterMetrics()
	if met.Submitted != uint64(want) {
		t.Errorf("router saw %d submissions for %d requests", met.Submitted, want)
	}
	if met.Submitted != met.Shed+met.Failed+met.Completed {
		t.Errorf("submitted %d != shed %d + failed %d + completed %d", met.Submitted, met.Shed, met.Failed, met.Completed)
	}
	if got := rt.Inflight(); got != 0 {
		t.Errorf("in-flight gauge = %d with nothing outstanding", got)
	}
}

// TestRouterLostWakeup runs eight closed-loop clients against a budget of
// one, so nearly every request is queued behind a full budget and depends on
// a completion's wake token (or on its own submitter reading the lowered
// gauge) to ever be dispatched. A lost wakeup hangs a Do.
func TestRouterLostWakeup(t *testing.T) {
	gwA := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	gwB := testShard(t, "shard-b", []string{"lane-b"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{GlobalBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 2000
	m := dnn.MustByName("MobileNet v3")
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if r, err := rt.Do(serve.Request{Model: m, Conditions: conds()}); err != nil {
					t.Errorf("request %d: %v %+v", i, err, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkQuiet(t, rt, clients*perClient)
	if met := rt.RouterMetrics(); met.Completed != clients*perClient {
		t.Errorf("completed %d of %d", met.Completed, clients*perClient)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSinkExactlyOnceUnderLifecycle kills one shard and drains another while
// eight clients keep their pooled envelopes cycling through Do. Every lane
// re-homes, so every request must still be served — bounced ones by failing
// over — and come back to the client that sent it: a response delivered twice,
// or to an envelope that has already been recycled, unbalances the books,
// panics on the cleared envelope or shows up as another lane's answer.
func TestSinkExactlyOnceUnderLifecycle(t *testing.T) {
	gwB := testShard(t, "shard-b", []string{"lane-b0", "lane-b1"}, 3, serve.Config{})
	gws := []ShardGateway{
		{"shard-a", testShard(t, "shard-a", []string{"lane-a0", "lane-a1"}, 1, serve.Config{})},
		{"shard-b", gwB},
		{"shard-c", testShard(t, "shard-c", []string{"lane-c0", "lane-c1"}, 5, serve.Config{})},
	}
	rt, err := New(gws, Config{GlobalBudget: 32, EngineFactory: rehomeFactory})
	if err != nil {
		t.Fatal(err)
	}

	// Three clients share a lane of the shard to be killed and three a lane
	// of the one to be drained; two go wherever load is least.
	pins := []string{"lane-b0", "lane-b0", "lane-b0", "lane-c0", "lane-c0", "lane-c0", "", ""}
	m := dnn.MustByName("MobileNet v3")
	var stop atomic.Bool
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := range pins {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Device: pins[c]})
				sent.Add(1)
				if err != nil || r.Status != serve.StatusServed {
					t.Errorf("client %d request %d: %v %+v", c, i, err, r)
					return
				}
				if pins[c] != "" && r.Device != pins[c] {
					t.Errorf("client %d pinned %q got %q's response", c, pins[c], r.Device)
					return
				}
			}
		}(c)
	}
	progress := func(n uint64) {
		from := rt.RouterMetrics().Completed
		for rt.RouterMetrics().Completed < from+n && !t.Failed() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	progress(500)

	// The kill finds lane-b0's clients queued behind a parked worker, so
	// their requests bounce off the dying shard's worker while the other five
	// clients keep dispatching.
	park := &blockingSink{entered: make(chan struct{}), release: make(chan struct{})}
	if err := gwB.SubmitTo(serve.Request{Model: m, Conditions: conds(), Device: "lane-b0"}, park); err != nil {
		t.Fatal(err)
	}
	<-park.entered
	for gwB.Snapshot().QueueDepth < 3 && !t.Failed() {
		time.Sleep(50 * time.Microsecond)
	}
	killed := make(chan error, 1)
	go func() { killed <- rt.KillShard("shard-b") }()
	for !gwB.Closed() {
		time.Sleep(50 * time.Microsecond)
	}
	close(park.release)
	if err := <-killed; err != nil {
		t.Error(err)
	}
	progress(500)
	if err := rt.DrainShard(context.Background(), "shard-c"); err != nil {
		t.Error(err)
	}
	progress(500)
	stop.Store(true)
	wg.Wait()

	checkQuiet(t, rt, int(sent.Load()))
	met := rt.RouterMetrics()
	if met.Failed != 0 || met.Shed != 0 {
		t.Errorf("lifecycle lost requests: %+v", met)
	}
	if met.ShardKills != 1 || met.ShardDrains != 1 || met.RehomedDevices != 4 {
		t.Errorf("lifecycle accounting %+v", met)
	}
	if met.Failovers == 0 {
		t.Error("no failover though the kill stranded queued requests")
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// blockingSink holds a lane's worker inside Deliver until released.
type blockingSink struct{ entered, release chan struct{} }

func (s *blockingSink) Deliver(*serve.Response) {
	close(s.entered)
	<-s.release
}

// TestWorkerBounceFailsOver strands a known backlog in a shard's queue — its
// one worker is parked inside a sink — and kills the shard. The worker then
// rejects the backlog request by request, so every completion runs on the
// dying shard's own worker: each must requeue its request for the dispatcher
// goroutine, and each request must come back served by the lane's new home.
func TestWorkerBounceFailsOver(t *testing.T) {
	gwA := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	gwB := testShard(t, "shard-b", []string{"lane-b"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{EngineFactory: rehomeFactory})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	park := &blockingSink{entered: make(chan struct{}), release: make(chan struct{})}
	if err := gwB.SubmitTo(serve.Request{Model: m, Conditions: conds()}, park); err != nil {
		t.Fatal(err)
	}
	<-park.entered

	const backlog = 20
	var chans []<-chan serve.Response
	for i := 0; i < backlog; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds(), Device: "lane-b"})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if got := rt.Inflight(); got != backlog {
		t.Fatalf("%d of %d requests dispatched by their submitters", got, backlog)
	}

	killed := make(chan error, 1)
	go func() { killed <- rt.KillShard("shard-b") }()
	for !gwB.Closed() {
		time.Sleep(50 * time.Microsecond)
	}
	close(park.release)
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		if r := <-ch; r.Status != serve.StatusServed || r.Device != "lane-b" {
			t.Fatalf("stranded request %d: %+v", i, r)
		}
	}
	checkQuiet(t, rt, backlog)
	if met := rt.RouterMetrics(); met.Failovers != backlog || met.Dispatched != 2*backlog {
		t.Errorf("failovers %d, dispatches %d for a backlog of %d", met.Failovers, met.Dispatched, backlog)
	}
	if got := gwA.Snapshot().Served; got != backlog {
		t.Errorf("survivor served %d of %d", got, backlog)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionNeverKills lets a shard_crash drill come due while the
// shard's last queued requests are being served. Their completions run on the
// shard's worker, and Gateway.Kill waits for that worker: a completion that
// fired the drill would wait for itself. The drill must stay unfired until
// the next submission, and fire there.
func TestCompletionNeverKills(t *testing.T) {
	inj := fault.New(&fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindShardCrash, Shard: "shard-b", StartS: 0.001},
	}}, exec.NewRoot(1).Child("faults"))
	gwA := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	gwB := testShard(t, "shard-b", []string{"lane-b"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{
		Faults: inj, EngineFactory: rehomeFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")

	// Every submission precedes every service, so none sees the drill due.
	release := holdDispatch(rt)
	var chans []<-chan serve.Response
	for i := 0; i < 10; i++ {
		ch, err := rt.Submit(serve.Request{Model: m, Conditions: conds(), Device: "lane-b"})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	release()
	for i, ch := range chans {
		if r := <-ch; r.Status != serve.StatusServed {
			t.Fatalf("request %d: %+v", i, r)
		}
	}
	if gwB.VirtualNow() < 0.001 {
		t.Fatalf("drill not due after ten requests (shard clock %.4fs)", gwB.VirtualNow())
	}
	if kills := rt.RouterMetrics().ShardKills; kills != 0 {
		t.Fatalf("%d shard kills with no submission since the drill came due", kills)
	}

	r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Device: "lane-b"})
	if err != nil || r.Status != serve.StatusServed {
		t.Fatalf("request after the drill: %v %+v", err, r)
	}
	if kills := rt.RouterMetrics().ShardKills; kills != 1 {
		t.Fatalf("%d shard kills after the next submission, want 1", kills)
	}
	if home := rt.Home("lane-b"); home != "shard-a" {
		t.Fatalf("lane-b homed on %q after the drill", home)
	}
	checkQuiet(t, rt, 11)
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
