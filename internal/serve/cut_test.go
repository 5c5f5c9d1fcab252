package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/obs"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/soc"
)

// checkCut asserts the invariants every snapshot must hold mid-traffic: no
// more outcomes than submissions, and every served request counted once in
// the served counter, the latency, energy and execute-phase histograms and
// both label maps.
func checkCut(t *testing.T, what string, s metrics.Snapshot) bool {
	t.Helper()
	if s.Accounted() > s.Submitted {
		t.Errorf("%s: accounted %d > submitted %d (%+v)", what, s.Accounted(), s.Submitted, s)
		return false
	}
	var byDevice, byTarget int64
	for _, n := range s.ByDevice {
		byDevice += n
	}
	for _, n := range s.ByTarget {
		byTarget += n
	}
	if s.Served != s.Latency.Count || s.Served != s.Energy.Count || s.Served != s.Phases[obs.PhaseExecute].Count ||
		s.Served != byDevice || s.Served != byTarget {
		t.Errorf("%s: served %d, latency %d, energy %d, execute %d, by device %d, by target %d",
			what, s.Served, s.Latency.Count, s.Energy.Count, s.Phases[obs.PhaseExecute].Count, byDevice, byTarget)
		return false
	}
	return true
}

// TestSnapshotCutAcrossLanes races Do, Submit and SubmitTo — pinned,
// unpinned, dead on arrival and to an unknown device — over two depth-2
// ShedOldest lanes while a reader takes gateway snapshots. Every snapshot
// folds the lane registries and the unrouted one, so every one must satisfy
// the per-registry invariants (checkCut). Once the traffic has stopped and
// every response is in, each registry, and so the fold, must account for
// exactly what it admitted: a request's submission and its outcome land in
// the same registry.
func TestSnapshotCutAcrossLanes(t *testing.T) {
	const clients = 6
	g := testGateway(t, Config{QueueDepth: 2, Shed: ShedOldest})
	defer g.Shutdown(context.Background())
	m := dnn.MustByName("MobileNet v3")
	devices := append(g.Devices(), "", "no-such-device")

	var stop atomic.Bool
	var delivered, traffic sync.WaitGroup
	chans := make([][]<-chan Response, clients)
	for c := 0; c < clients; c++ {
		traffic.Add(1)
		go func(c int) {
			defer traffic.Done()
			for i := 0; !stop.Load(); i++ {
				req := Request{Model: m, Conditions: conds(), Device: devices[(c+i/2)%len(devices)]}
				if i%9 == 4 {
					req.Deadline = time.Now().Add(-time.Second)
				}
				var err error
				switch c % 3 {
				case 0:
					// A non-served outcome comes back as the response's Err too;
					// only an error without a response is a misuse.
					if r, derr := g.Do(req); r.Err == nil {
						err = derr
					}
				case 1:
					var ch <-chan Response
					ch, err = g.Submit(req)
					chans[c] = append(chans[c], ch)
				default:
					delivered.Add(1)
					if err = g.SubmitTo(req, &onceSink{wg: &delivered}); err != nil {
						delivered.Done()
					}
				}
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				runtime.Gosched()
			}
		}(c)
	}

	snaps := 0
	for limit := time.Now().Add(30 * time.Second); ; snaps++ {
		s := g.Snapshot()
		if !checkCut(t, "mid-traffic snapshot", s) {
			break
		}
		if s.Served >= 2000 && s.Shed > 0 && s.Expired > 0 && s.Failed > 0 {
			break
		}
		if time.Now().After(limit) {
			t.Errorf("traffic never covered served, shed, expired and failed: %+v", s)
			break
		}
		runtime.Gosched() // on one CPU the reader would starve the clients
	}
	stop.Store(true)
	traffic.Wait()
	delivered.Wait()
	for _, cs := range chans {
		for _, ch := range cs {
			<-ch
		}
	}

	regs := map[string]*metrics.Registry{"unrouted": g.unrouted}
	for _, w := range g.workers {
		regs[w.device] = w.met
	}
	for name, r := range regs {
		s := r.Snapshot()
		if checkCut(t, name, s) && s.Submitted != s.Accounted() {
			t.Errorf("registry %s at rest: submitted %d, accounted %d (%+v)", name, s.Submitted, s.Accounted(), s)
		}
	}
	s := g.Snapshot()
	if checkCut(t, "gateway at rest", s) && s.Submitted != s.Accounted() {
		t.Errorf("gateway at rest: submitted %d, accounted %d", s.Submitted, s.Accounted())
	}
	if s.QueueDepth != 0 {
		t.Errorf("queue depth at rest = %d", s.QueueDepth)
	}
	t.Logf("%d mid-traffic snapshots; %d submitted, %d served, %d shed, %d expired, %d failed",
		snaps, s.Submitted, s.Served, s.Shed, s.Expired, s.Failed)
}

// servedGateway builds a gateway of n Mi8Pro lanes and serves perLane
// requests pinned to each, so every lane's registry holds observations in
// its latency, wait, energy and phase histograms.
func servedGateway(t testing.TB, n, perLane int) *Gateway {
	t.Helper()
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = Backend{Device: fmt.Sprintf("lane-%d", i), Engine: testEngine(t, soc.Mi8Pro(), int64(i+1), core.DefaultConfig())}
	}
	g, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < n*perLane; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds(), Device: backends[i%n].Device}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestGatewaySnapshotAllocsFlat: Gateway.Snapshot folds each lane's
// registry into one accumulator, so reading four busy lanes allocates no
// more than reading one. A read that copied each lane's histograms first
// would allocate per lane.
func TestGatewaySnapshotAllocsFlat(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{1, 4} {
		g := servedGateway(t, n, 50)
		allocs[n] = testing.AllocsPerRun(20, func() { g.Snapshot() })
		if err := g.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if allocs[4] != allocs[1] {
		t.Fatalf("Gateway.Snapshot allocates %.0f times on 4 lanes, %.0f on 1", allocs[4], allocs[1])
	}
}

// BenchmarkGatewaySnapshot prices one Gateway.Snapshot on a two-lane
// gateway after 2,000 requests: the read the admin endpoint, the router and
// the supervisor's ShardSignals take.
func BenchmarkGatewaySnapshot(b *testing.B) {
	g := servedGateway(b, 2, 1000)
	defer g.Shutdown(context.Background()) //nolint:errcheck
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Snapshot()
	}
}
