package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/dnn"
	"autoscale/internal/obs"
	"autoscale/internal/serve/metrics"
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
