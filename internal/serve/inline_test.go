package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/soc"
	"autoscale/internal/trace"
)

// twinStorm darkens both remote sites through the middle of the twins'
// stream, then fades the WLAN link, so breakers, retries and hedges all run.
var twinStorm = &fault.Schedule{Name: "twin-storm", Faults: []fault.Spec{
	{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 5, EndS: 20},
	{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 5, EndS: 20},
	{Kind: fault.KindRSSIRamp, Link: fault.LinkWLAN, StartS: 20, EndS: 35, DeltaDBm: -20},
}}

// twinGateway builds one of a set of identical two-lane gateways: same
// engines, seeds, fault storm and resilience settings, with the decision
// trace written to the returned buffer.
func twinGateway(t *testing.T) (*Gateway, *trace.Writer, *bytes.Buffer) {
	t.Helper()
	var backends []Backend
	for i, dev := range []*soc.Device{soc.Mi8Pro(), soc.GalaxyS10e()} {
		seed := int64(31 + i)
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		// Exploration keeps offloads, and with them retries, hedges and
		// breaker transitions, flowing through the storm.
		cfg.RL.Epsilon = 0.5
		e := testEngine(t, dev, seed, cfg)
		e.World.Faults = fault.New(twinStorm, exec.NewRoot(seed).Child("faults"))
		backends = append(backends, Backend{Device: dev.Name, Engine: e})
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	g, err := New(backends, Config{
		Trace: tw,
		Resilience: ResilienceConfig{
			Enabled: true, FailureThreshold: 1, OpenForS: 4, HalfOpenProbes: 1,
			MaxRetries: 2, Hedge: true, HedgeAfterS: 0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, tw, &buf
}

// deterministic strips a response of its wall-clock fields, leaving what a
// replay must reproduce.
func deterministic(r Response) Response {
	r.SubmittedAt, r.DoneAt, r.WaitS = time.Time{}, time.Time{}, 0
	return r
}

// TestDoInlineMatchesWorker checks that serving a Do on the caller's
// goroutine changes nothing but who runs it: three twin gateways take the
// same sequential request stream, one through Do (every request inline), one
// through Submit and a receive (every request through the worker), one
// alternating the two, and every response, measurement and trace record
// must match to the bit.
func TestDoInlineMatchesWorker(t *testing.T) {
	const n = 600
	zoo := []*dnn.Model{dnn.MustByName("MobileNet v3"), dnn.MustByName("ResNet 50"), dnn.MustByName("MobileBERT")}
	viaSubmit := func(g *Gateway, req Request) Response {
		ch, err := g.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return <-ch
	}
	drive := func(mode string) ([]Response, []string, int64) {
		g, tw, buf := twinGateway(t)
		out := make([]Response, 0, n)
		for i := 0; i < n; i++ {
			req := Request{Model: zoo[i%len(zoo)], Conditions: conds()}
			var r Response
			switch {
			case mode == "do", mode == "mixed" && (i/2)%3 != 1:
				r, _ = g.Do(req)
			default:
				r = viaSubmit(g, req)
			}
			out = append(out, r)
		}
		maxDepth := g.Snapshot().QueueMaxDepth
		if err := g.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return out, strings.Split(strings.TrimSpace(buf.String()), "\n"), maxDepth
	}

	want, wantTrace, depth := drive("submit")
	if depth == 0 {
		t.Fatal("the Submit twin never queued: the worker path was not exercised")
	}
	if len(wantTrace) != n {
		t.Fatalf("worker twin traced %d records, want %d", len(wantTrace), n)
	}
	for _, mode := range []string{"do", "mixed"} {
		got, gotTrace, depth := drive(mode)
		if mode == "do" && depth != 0 {
			t.Errorf("Do twin reached queue depth %d: a request left the inline path", depth)
		}
		for i := range want {
			w, g := want[i], got[i]
			if deterministic(g) != deterministic(w) {
				t.Fatalf("%s request %d: response\n%+v\nwant\n%+v", mode, i, g, w)
			}
			wm, gm := w.Decision.Measurement, g.Decision.Measurement
			for _, f := range [][2]float64{{gm.LatencyS, wm.LatencyS}, {gm.EnergyJ, wm.EnergyJ}, {gm.WastedJ, wm.WastedJ}} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Fatalf("%s request %d: measurement bits %v vs %v", mode, i, gm, wm)
				}
			}
		}
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("%s twin traced %d records, want %d", mode, len(gotTrace), len(wantTrace))
		}
		for i := range wantTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("%s trace record %d:\n%s\nwant\n%s", mode, i, gotTrace[i], wantTrace[i])
			}
		}
	}
	var served, hedged, retried, degraded int
	for _, r := range want {
		if r.Status == StatusServed {
			served++
		}
		if r.Hedged {
			hedged++
		}
		if r.OffloadRetries > 0 {
			retried++
		}
		if r.Degraded {
			degraded++
		}
	}
	if served != n || hedged == 0 || retried == 0 || degraded == 0 {
		t.Fatalf("degenerate stream: %d served, %d hedged, %d retried, %d degraded", served, hedged, retried, degraded)
	}
}

// stressed is one request of the entry-point stress and how it ended.
type stressed struct {
	device string // pinned lane; empty when routed
	ch     <-chan Response
	sink   *onceSink
	resp   Response
	done   bool // resp holds the Do outcome
}

// TestEntryPointsStress races Do, Submit and SubmitTo from eight goroutines,
// pinned and unpinned, over two depth-2 ShedOldest lanes, and stops the
// gateway mid-traffic — once with Shutdown, once with Kill. Every accepted
// request must end exactly once and the books must balance, each goroutine's
// served requests on one lane must complete in submission order, and every
// lane must end idle.
func TestEntryPointsStress(t *testing.T) {
	for _, stop := range []string{"shutdown", "kill"} {
		t.Run(stop, func(t *testing.T) {
			const clients = 8
			g := testGateway(t, Config{QueueDepth: 2, Shed: ShedOldest})
			m := dnn.MustByName("MobileNet v3")
			devices := append(g.Devices(), "")

			var delivered, flood sync.WaitGroup
			reqs := make([][]*stressed, clients)
			for c := 0; c < clients; c++ {
				flood.Add(1)
				go func(c int) {
					defer flood.Done()
					for i := 0; ; i++ {
						s := &stressed{device: devices[(c+i/3)%len(devices)]}
						req := Request{Model: m, Conditions: conds(), Device: s.device}
						if i%11 == 5 {
							req.Deadline = time.Now().Add(-time.Second)
						}
						var err error
						switch (c + i) % 3 {
						case 0:
							s.resp, err = g.Do(req)
							s.done = true
						case 1:
							s.ch, err = g.Submit(req)
						default:
							s.sink = &onceSink{wg: &delivered}
							delivered.Add(1)
							if err = g.SubmitTo(req, s.sink); err != nil {
								delivered.Done()
							}
						}
						if errors.Is(err, ErrClosed) {
							return // refused: the gateway has stopped
						}
						if err != nil && !s.done {
							t.Errorf("client %d request %d: %v", c, i, err)
							return
						}
						reqs[c] = append(reqs[c], s)
						runtime.Gosched()
					}
				}(c)
			}
			for limit := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				if snap := g.Snapshot(); snap.Served >= 2000 && snap.Shed > 0 && snap.Expired > 0 {
					break
				}
				if time.Now().After(limit) {
					t.Errorf("traffic never covered served, shed and expired: %+v", g.Snapshot())
					break
				}
			}
			var err error
			if stop == "kill" {
				err = g.Kill()
			} else {
				err = g.Shutdown(context.Background())
			}
			if err != nil {
				t.Fatal(err)
			}
			flood.Wait()
			delivered.Wait()

			byStatus := map[Status]int64{}
			var accepted int64
			for c := range reqs {
				last := map[string]time.Time{}
				for i, s := range reqs[c] {
					var r Response
					switch {
					case s.done:
						r = s.resp
					case s.ch != nil:
						select {
						case r = <-s.ch:
						default:
							t.Fatalf("client %d request %d: Submit never answered", c, i)
						}
					default:
						if n := s.sink.n.Load(); n != 1 {
							t.Fatalf("client %d request %d: sink delivered %d times", c, i, n)
						}
						r = s.sink.resp
					}
					accepted++
					byStatus[r.Status]++
					if r.Status != StatusServed {
						continue
					}
					if s.device != "" && r.Device != s.device {
						t.Fatalf("client %d request %d pinned to %q served on %q", c, i, s.device, r.Device)
					}
					if s.device != "" {
						if r.DoneAt.Before(last[s.device]) {
							t.Fatalf("client %d request %d on %s completed before an earlier request", c, i, s.device)
						}
						last[s.device] = r.DoneAt
					}
				}
			}
			snap := g.Snapshot()
			if snap.Submitted != accepted || snap.Submitted != snap.Accounted() {
				t.Fatalf("submitted %d, accounted %d, clients saw %d", snap.Submitted, snap.Accounted(), accepted)
			}
			if snap.Served != byStatus[StatusServed] || snap.Shed != byStatus[StatusShed] ||
				snap.Expired != byStatus[StatusExpired] || snap.Failed != byStatus[StatusFailed] {
				t.Fatalf("books %d/%d/%d/%d vs clients %v", snap.Served, snap.Shed, snap.Expired, snap.Failed, byStatus)
			}
			for _, w := range g.workers {
				if b := w.busy.Load(); b != 0 {
					t.Errorf("lane %s ends with busy %d", w.device, b)
				}
			}
		})
	}
}
