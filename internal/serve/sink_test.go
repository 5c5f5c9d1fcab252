package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/dnn"
)

// onceSink is one request's sink: it counts deliveries and keeps the last.
type onceSink struct {
	n    atomic.Int32
	resp Response
	wg   *sync.WaitGroup
}

func (s *onceSink) Deliver(r *Response) {
	if s.n.Add(1) == 1 {
		s.resp = *r
	}
	s.wg.Done()
}

// TestSubmitToExactlyOnce floods SubmitTo from eight clients over every way a
// request can end — served, shed on a depth-1 queue, expired on arrival,
// unknown device, stranded by a mid-flood Kill, refused once closed — and
// checks the sink contract: one Deliver per accepted request, none per
// refused one, and the gateway's own books agree.
func TestSubmitToExactlyOnce(t *testing.T) {
	const clients = 8
	g := testGateway(t, Config{QueueDepth: 1})
	m := dnn.MustByName("MobileNet v3")
	devices := append(g.Devices(), "no-such-device")

	var delivered, flood sync.WaitGroup
	sinks := make([][]*onceSink, clients)
	refused := make([]int, clients)
	for c := 0; c < clients; c++ {
		flood.Add(1)
		go func(c int) {
			defer flood.Done()
			// Each client floods until the kill refuses it.
			for i := 0; refused[c] == 0; i++ {
				req := Request{Model: m, Conditions: conds(), Device: devices[(c+i)%len(devices)]}
				if i%7 == 3 {
					req.Deadline = time.Now().Add(-time.Second)
				}
				s := &onceSink{wg: &delivered}
				delivered.Add(1)
				if err := g.SubmitTo(req, s); err != nil {
					delivered.Done()
					if !errors.Is(err, ErrClosed) {
						t.Errorf("client %d request %d: %v", c, i, err)
					}
					refused[c]++
					s.n.Store(-1)
				}
				sinks[c] = append(sinks[c], s)
				runtime.Gosched() // eight spinning clients would starve the two workers
			}
		}(c)
	}
	// Flood until the books show every outcome, not merely until enough were
	// served: whether a depth-1 queue has shed anything by the hundredth
	// completion is a race the clients often lose.
	for limit := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if snap := g.Snapshot(); snap.Served >= 100 && snap.Shed > 0 && snap.Expired > 0 && snap.Failed > 0 {
			break
		}
		if time.Now().After(limit) {
			t.Errorf("flood never covered every outcome: %+v", g.Snapshot())
			break
		}
	}
	// Kill waits for the workers, so every stranded request has been
	// delivered its ErrShardDown by the time it returns.
	if err := g.Kill(); err != nil {
		t.Fatal(err)
	}
	flood.Wait()
	delivered.Wait()

	byStatus := map[Status]int64{}
	accepted, totalRefused := int64(0), 0
	for c := range sinks {
		totalRefused += refused[c]
		for i, s := range sinks[c] {
			switch n := s.n.Load(); n {
			case -1: // refused: never delivered
			case 1:
				accepted++
				byStatus[s.resp.Status]++
				if s.resp.Status == StatusServed && s.resp.Device != devices[(c+i)%len(devices)] {
					t.Errorf("client %d request %d pinned to %q got %q's response",
						c, i, devices[(c+i)%len(devices)], s.resp.Device)
				}
			default:
				t.Errorf("client %d request %d delivered %d times", c, i, n)
			}
		}
	}
	if totalRefused != clients {
		t.Errorf("%d refusals for %d clients", totalRefused, clients)
	}
	snap := g.Snapshot()
	if snap.Submitted != accepted || snap.Submitted != snap.Accounted() {
		t.Fatalf("gateway submitted %d, accounted %d, sinks saw %d", snap.Submitted, snap.Accounted(), accepted)
	}
	if snap.Served != byStatus[StatusServed] || snap.Shed != byStatus[StatusShed] ||
		snap.Expired != byStatus[StatusExpired] || snap.Failed != byStatus[StatusFailed] {
		t.Fatalf("gateway books %d/%d/%d/%d vs sinks %v", snap.Served, snap.Shed, snap.Expired, snap.Failed, byStatus)
	}
	for _, st := range []Status{StatusServed, StatusShed, StatusExpired, StatusFailed} {
		if byStatus[st] == 0 {
			t.Errorf("no request ended %s: the flood missed an outcome", st)
		}
	}
}
