package serve

import (
	"bytes"
	"context"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/soc"
	"autoscale/internal/trace"
)

// stormSchedule is the acceptance storm: phase 1 takes both remote sites
// solid-down (every offload fails and the local fallback answers), phase 2 restores connectivity under a deep WLAN fade
// (offloads work but cost more), phase 3 is full recovery.
func stormSchedule() *fault.Schedule {
	return &fault.Schedule{Name: "acceptance-storm", Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0.2, EndS: 3.2},
		{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 0.2, EndS: 3.2},
		{Kind: fault.KindRSSIRamp, Link: fault.LinkWLAN, StartS: 3.2, EndS: 6.2, DeltaDBm: -20},
	}}
}

// runStorm serves one full pass of the acceptance storm on a fresh gateway
// and returns the serialized decision trace and every response in order.
func runStorm(t *testing.T, seed int64) ([]byte, []Response) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed // the engine's decision/noise streams must track the storm seed
	// A cold policy rarely offloads; high exploration keeps remote attempts
	// flowing through every storm phase.
	cfg.RL.Epsilon = 0.5
	e := testEngine(t, soc.Mi8Pro(), seed, cfg)
	e.World.Faults = fault.New(stormSchedule(), exec.NewRoot(seed).Child("faults"))

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	var responses []Response
	for i := 0; i < 900; i++ {
		r, err := g.Do(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if r.Status != StatusServed {
			t.Fatalf("request %d not served mid-storm: %+v", i, r)
		}
		responses = append(responses, r)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), responses
}

// TestStormAcceptance replays the scripted three-phase outage storm end to
// end: the gateway must keep serving throughout, answering offloads that hit
// the dual-site outage from the local fallback, and replaying the same
// schedule and seed must yield a byte-identical decision trace.
func TestStormAcceptance(t *testing.T) {
	const seed = 31
	traceBytes, responses := runStorm(t, seed)

	// runStorm fails on any request not served; the outage phase must have
	// been exercised for that to mean anything.
	outages := 0
	for _, r := range responses {
		if r.Outage {
			outages++
		}
	}
	if outages == 0 {
		t.Error("no offload hit the dual-site outage phase")
	}

	// Deterministic replay: an identical fresh run produces a byte-identical
	// per-request decision log.
	traceBytes2, _ := runStorm(t, seed)
	if !bytes.Equal(traceBytes, traceBytes2) {
		t.Fatalf("replay diverged: trace sizes %d vs %d bytes", len(traceBytes), len(traceBytes2))
	}
	// And the trace is a well-formed decision log covering every request.
	records, err := trace.ReadAll(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(responses) {
		t.Fatalf("trace carries %d records for %d requests", len(records), len(responses))
	}
	sawOutage := false
	for _, rec := range records {
		if rec.Outage {
			sawOutage = true
			break
		}
	}
	if !sawOutage {
		t.Error("trace did not record the outage phase")
	}

	// A different seed must give a different storm (the Markov-free windows
	// are fixed, but decisions and noise differ) — guarding against the
	// trace accidentally ignoring the RNG.
	traceOther, _ := runStorm(t, seed+1)
	if bytes.Equal(traceBytes, traceOther) {
		t.Error("different seeds produced identical traces")
	}
}

// TestWastedJoulesLedger: the joules an outage wastes are booked once and
// read the same everywhere. One sequential client drives a one-lane gateway
// through the example storm, and the registry's OutageWastedJ, the sum of
// the trace records' WastedJ and the sum of the responses' WastedJ must be
// equal to the bit.
func TestWastedJoulesLedger(t *testing.T) {
	const seed, n = 11, 1500
	sched, err := fault.Load("../../examples/faults/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.RL.Epsilon = 0.5 // keep offloads flowing into the outage windows
	e := testEngine(t, soc.Mi8Pro(), seed, cfg)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{
		Trace:  tw,
		Faults: fault.New(sched, exec.NewRoot(seed).Child("faults")),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	var fromResponses float64
	for i := 0; i < n; i++ {
		r, err := g.Do(Request{Model: m, Conditions: conds()})
		if err != nil || r.Status != StatusServed {
			t.Fatalf("request %d: %v %v", i, r.Status, err)
		}
		fromResponses += r.Decision.Measurement.WastedJ
	}
	fromRegistry := g.Snapshot().OutageWastedJ
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("trace carries %d records for %d requests", len(recs), n)
	}
	var fromRecords float64
	for _, rec := range recs {
		fromRecords += rec.WastedJ
	}
	if fromRegistry <= 0 {
		t.Fatalf("the storm wasted no joules (lane clock %.2f s): the ledger was checked vacuously", e.Now())
	}
	if fromRegistry != fromRecords || fromRegistry != fromResponses {
		t.Fatalf("wasted joules: registry %v, trace records %v, responses %v",
			fromRegistry, fromRecords, fromResponses)
	}
}
