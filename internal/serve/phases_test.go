package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/obs"
	"autoscale/internal/soc"
	"autoscale/internal/trace"
	"autoscale/internal/tracez"
)

// TestPhaseSumInvariant pins the phase-span accounting contract: for every
// served request without hedging, the virtual-clock legs in the trace
// (execute + retry) reconstruct the recorded end-to-end latency exactly,
// and the wall-clock legs (queue, decide) never leak into the trace — they
// would break byte-identical replay.
func TestPhaseSumInvariant(t *testing.T) {
	const seed = 47
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.RL.Epsilon = 0.5 // keep offloads flowing into the outage window

	e := testEngine(t, soc.Mi8Pro(), seed, cfg)
	e.World.Faults = fault.New(&fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0.1, EndS: 2.0},
		{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 0.1, EndS: 2.0},
	}}, exec.NewRoot(seed).Child("faults"))

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{
		Trace: tw,
		// Retries on, hedge off: every served request must then
		// decompose exactly into execute + retry on the virtual clock.
		Resilience: ResilienceConfig{Enabled: true, MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 400; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 400 {
		t.Fatalf("trace has %d records", len(recs))
	}

	withRetry := 0
	for i, rec := range recs {
		p := rec.Phases
		if p == nil {
			t.Fatalf("record %d has no phases", i)
		}
		for _, wallOnly := range []string{obs.PhaseQueue, obs.PhaseDecide} {
			if _, ok := p[wallOnly]; ok {
				t.Fatalf("record %d leaked wall-clock phase %q into the trace", i, wallOnly)
			}
		}
		if _, ok := p[obs.PhaseHedge]; ok {
			t.Fatalf("record %d has a hedge leg with hedging disabled", i)
		}
		if p[obs.PhaseExecute] <= 0 {
			t.Fatalf("record %d: execute leg %v", i, p[obs.PhaseExecute])
		}
		if p[obs.PhaseRetry] > 0 {
			withRetry++
			if rec.Retries == 0 {
				t.Fatalf("record %d has a retry leg but zero retries", i)
			}
		}
		sum := p[obs.PhaseExecute] + p[obs.PhaseRetry]
		if math.Abs(sum-rec.LatencyS) > 1e-9 {
			t.Fatalf("record %d: phases sum to %.12f but latency is %.12f (phases %v)",
				i, sum, rec.LatencyS, p)
		}
	}
	if withRetry == 0 {
		t.Fatal("storm produced no retry legs; the invariant was tested vacuously")
	}

	// The registry sees every phase, including the wall-clock-only ones.
	snap := g.Snapshot()
	for _, phase := range []string{obs.PhaseQueue, obs.PhaseDecide, obs.PhaseExecute} {
		hs, ok := snap.Phases[phase]
		if !ok || hs.Count != 400 {
			t.Fatalf("registry phase %q: ok=%v count=%d, want 400", phase, ok, hs.Count)
		}
	}
	if hs, ok := snap.Phases[obs.PhaseRetry]; !ok || hs.Count != int64(withRetry) {
		t.Fatalf("registry retry phase: ok=%v count=%d, want %d", ok, hs.Count, withRetry)
	}
}

// TestSpansReconcileWithPhases pins the causal-trace accounting contract:
// for non-hedged serves, the execution-leg spans in a kept causal trace
// (execute, retry) carry exactly the durations the request-trace record's
// Phases map reports — both are emitted from the same PhaseTotals,
// so any drift means the span tree and the audit trail disagree about the
// same request. Decide spans must carry full provenance.
func TestSpansReconcileWithPhases(t *testing.T) {
	const seed = 47
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.RL.Epsilon = 0.5

	e := testEngine(t, soc.Mi8Pro(), seed, cfg)
	e.World.Faults = fault.New(&fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 0.1, EndS: 2.0},
		{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 0.1, EndS: 2.0},
	}}, exec.NewRoot(seed).Child("faults"))

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	tr := tracez.New(tracez.Config{SampleRate: 1, Ring: 512, Seed: seed})
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{
		Trace:      tw,
		Tracer:     tr,
		Resilience: ResilienceConfig{Enabled: true, MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 300; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]trace.Record, len(recs))
	for _, rec := range recs {
		if rec.TraceID != 0 {
			byID[rec.TraceID] = rec
		}
	}
	if len(byID) != len(recs) {
		t.Fatalf("%d of %d trace records carry a trace ID, want all (sample rate 1)",
			len(byID), len(recs))
	}

	kept := tr.Kept()
	if len(kept) == 0 {
		t.Fatal("tracer kept no traces at sample rate 1")
	}
	reconciled, withRetry := 0, 0
	for _, ct := range kept {
		rec, ok := byID[ct.ID]
		if !ok {
			t.Fatalf("kept trace %d has no matching trace record", ct.ID)
		}
		spans := make(map[string]float64, len(ct.Spans))
		for _, sp := range ct.Spans {
			spans[sp.Name] += sp.DurS
		}
		for _, leg := range []string{obs.PhaseExecute, obs.PhaseRetry} {
			if math.Abs(spans[leg]-rec.Phases[leg]) > 1e-12 {
				t.Fatalf("trace %d: span %q = %.12f but phases say %.12f",
					ct.ID, leg, spans[leg], rec.Phases[leg])
			}
		}
		if spans[obs.PhaseQueue] <= 0 || spans[obs.PhaseDecide] <= 0 {
			t.Fatalf("trace %d missing queue/decide spans: %v", ct.ID, spans)
		}
		if !ct.HasProv {
			t.Fatalf("trace %d served without provenance", ct.ID)
		}
		if len(ct.Prov.Q) == 0 || len(ct.Prov.Mask) == 0 || ct.Prov.Action == "" {
			t.Fatalf("trace %d provenance incomplete: %+v", ct.ID, ct.Prov)
		}
		if spans[obs.PhaseRetry] > 0 {
			withRetry++
		}
		reconciled++
	}
	if withRetry == 0 {
		t.Fatalf("none of the %d reconciled traces had a retry leg; invariant tested vacuously", reconciled)
	}
}

// TestTracedProvenanceMatchesDecision checks what the provenance says, not
// only that it is there: for every kept trace, the state and action are the
// served Decision's, the Q-row spans the action space, MaskedOut counts the
// mask's disabled actions, and an exploiting draw chose the masked row
// maximum.
func TestTracedProvenanceMatchesDecision(t *testing.T) {
	const seed = 53
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.RL.Epsilon = 0.5 // both branches of the epsilon-greedy draw
	e := testEngine(t, soc.Mi8Pro(), seed, cfg)
	tr := tracez.New(tracez.Config{SampleRate: 1, Ring: 512, Seed: seed})
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	zoo := dnn.Zoo() // recurrent models mask out the engines they cannot use
	served := make(map[uint64]core.Decision)
	for i := 0; i < 300; i++ {
		act := tr.Start(zoo[i%len(zoo)].Name, "", 0)
		id := act.ID()
		resp, err := g.Do(Request{Model: zoo[i%len(zoo)], Conditions: conds(), Trace: act})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		served[id] = resp.Decision
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	kept := tr.Kept()
	if len(kept) != len(served) {
		t.Fatalf("tracer kept %d of %d traces at sample rate 1", len(kept), len(served))
	}
	explored, exploited, masked := 0, 0, 0
	for _, ct := range kept {
		d, ok := served[ct.ID]
		if !ok || !ct.HasProv {
			t.Fatalf("trace %d: served=%v has_prov=%v", ct.ID, ok, ct.HasProv)
		}
		pr := ct.Prov
		if pr.StateIdx != d.StateIdx || pr.ActionIdx != d.ActionIndex {
			t.Fatalf("trace %d: prov state/action %d/%d, decision %d/%d",
				ct.ID, pr.StateIdx, pr.ActionIdx, d.StateIdx, d.ActionIndex)
		}
		if len(pr.Q) != e.Actions.Len() || len(pr.Mask) != e.Actions.Len() {
			t.Fatalf("trace %d: %d Q values and %d mask entries for %d actions",
				ct.ID, len(pr.Q), len(pr.Mask), e.Actions.Len())
		}
		off := 0
		for _, ok := range pr.Mask {
			if !ok {
				off++
			}
		}
		if pr.MaskedOut != off {
			t.Fatalf("trace %d: MaskedOut %d, mask disables %d", ct.ID, pr.MaskedOut, off)
		}
		if off > 0 {
			masked++
		}
		if pr.Explored {
			explored++
			continue
		}
		exploited++
		best := math.Inf(-1)
		for j, q := range pr.Q {
			if pr.Mask[j] && q > best {
				best = q
			}
		}
		if pr.Q[pr.ActionIdx] != best {
			t.Fatalf("trace %d: exploit chose Q[%d] = %v, masked row maximum is %v",
				ct.ID, pr.ActionIdx, pr.Q[pr.ActionIdx], best)
		}
	}
	if explored == 0 || exploited == 0 || masked == 0 {
		t.Fatalf("vacuous: explored=%d exploited=%d masked=%d", explored, exploited, masked)
	}
}

// TestShutdownSurfacesTraceError pins satellite (b): a trace writer whose
// sink failed must fail Gateway.Shutdown instead of silently dropping the
// audit trail.
func TestShutdownSurfacesTraceError(t *testing.T) {
	sink := &failingSink{err: errors.New("disk full")}
	tw := trace.NewWriter(sink)
	g := testGateway(t, Config{Trace: tw})
	m := dnn.MustByName("MobileNet v3")
	// Enough records to overflow the bufio buffer so the sink failure is hit
	// during serving; the sticky error must still surface at Shutdown.
	for i := 0; i < 500; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	err := g.Shutdown(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Shutdown = %v, want the trace sink failure", err)
	}
}

// failingSink fails every write.
type failingSink struct{ err error }

func (s *failingSink) Write(p []byte) (int, error) { return 0, s.err }

// TestLaneClockMatchesCharge pins lane-clock conservation. Fault windows,
// gray factors and breakers all key on the lane's virtual clock, so every
// served request must advance it by exactly the latency it is charged:
// through outages, offload retries, breaker degradation, gray stretching
// and hedges alike, won or lost. A hedge's local leg runs on a clock of its
// own, and the lane ends at the winner's finish.
func TestLaneClockMatchesCharge(t *testing.T) {
	const seed, n = 3, 2000
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.RL.Epsilon = 0.5 // keep offloads flowing into every fault window

	e := testEngine(t, soc.Mi8Pro(), seed, cfg)
	inj := fault.New(&fault.Schedule{Faults: []fault.Spec{
		{Kind: fault.KindOutage, Site: fault.SiteCloud, StartS: 2, EndS: 14, MeanUpS: 1, MeanDownS: 1},
		{Kind: fault.KindOutage, Site: fault.SiteConnected, StartS: 2, EndS: 14, MeanUpS: 1, MeanDownS: 1},
		{Kind: fault.KindRSSIRamp, Link: fault.LinkWLAN, StartS: 14, EndS: 22, DeltaDBm: -20},
		{Kind: fault.KindGrayDegrade, Device: "Mi8Pro", StartS: 22, EndS: 28, Factor: 1.5},
	}}, exec.NewRoot(seed).Child("faults"))
	var buf bytes.Buffer
	g, err := New([]Backend{{Device: "Mi8Pro", Engine: e}}, Config{
		Trace:      trace.NewWriter(&buf),
		Faults:     inj,
		Resilience: ResilienceConfig{Enabled: true, MaxRetries: 2, Hedge: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	outages, retried, degraded, gray, won, lost := 0, 0, 0, 0, 0, 0
	for i := 0; i < n; i++ {
		before := e.Now()
		resp, err := g.Do(Request{Model: m, Conditions: conds()})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		charged := resp.Decision.Measurement.LatencyS
		if moved := e.Now() - before; math.Abs(moved-charged) > 1e-9 {
			t.Fatalf("request %d: lane clock moved %.12f s but the request is charged %.12f s",
				i, moved, charged)
		}
		if resp.Outage {
			outages++
		}
		if resp.OffloadRetries > 0 {
			retried++
		}
		if resp.Degraded {
			degraded++
		}
		if inj.GrayFactor("Mi8Pro", before) > 1 {
			gray++
		}
		switch {
		case resp.HedgeWon:
			won++
		case resp.Hedged:
			lost++
		}
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d requests: %d outages, %d retried, %d degraded, %d gray-stretched, %d/%d hedges won/lost, lane clock %.3f s",
		n, outages, retried, degraded, gray, won, lost, e.Now())
	if outages == 0 || retried == 0 || degraded == 0 || gray == 0 || won == 0 || lost == 0 {
		t.Fatalf("vacuous: %d outages, %d retried, %d degraded, %d gray-stretched requests, %d/%d hedges won/lost",
			outages, retried, degraded, gray, won, lost)
	}

	// The record's phases are the critical path, so they add up to the
	// charged latency too: a won hedge is the remote leg up to the hedge
	// point plus the local leg, a lost one the remote leg alone.
	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hedgeLegs := 0
	for i, rec := range recs {
		p := rec.Phases
		if p[obs.PhaseHedge] > 0 {
			hedgeLegs++
		}
		if sum := p[obs.PhaseExecute] + p[obs.PhaseRetry] + p[obs.PhaseHedge]; math.Abs(sum-rec.LatencyS) > 1e-9 {
			t.Fatalf("record %d: phases sum to %.12f but latency is %.12f (phases %v)", i, sum, rec.LatencyS, p)
		}
	}
	if len(recs) != n || hedgeLegs != won {
		t.Fatalf("%d records with %d hedge legs, want %d with %d", len(recs), hedgeLegs, n, won)
	}
}
