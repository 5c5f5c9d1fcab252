package tracez

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autoscale/internal/obs"
)

// finishOne drives one request through a full trace lifecycle.
func finishOne(tr *Tracer, model, status string, flags uint8) *Active {
	a := tr.Start(model, "tenant-a", 1.5)
	a.Span("queue", 0.001, "")
	if p := a.Prov(); p != nil {
		p.StateIdx = 7
		p.State = "s7"
		p.Epsilon = 0.1
		p.Explored = true
		p.Action = "edge"
		p.ActionIdx = 2
		p.Q = append(p.Q[:0], 0.5, -0.25, 1.75)
		p.Mask = append(p.Mask[:0], true, false, true)
		p.MaskedOut = 1
	}
	a.Span("decide", 0.0001, "")
	a.Span("execute", 0.02, "edge")
	a.SetShard("shard-0")
	if flags != 0 {
		a.Flag(flags)
	}
	a.Finish(status)
	return a
}

// TestNilSafety drives every Active and Tracer method through nil
// receivers: the disabled path must be branch-only.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.Start("m", "t", 0)
	if a != nil {
		t.Fatalf("nil tracer Start = %v, want nil", a)
	}
	a.Span("queue", 1, "")
	a.Flag(FlagShed)
	a.SetShard("s")
	if p := a.Prov(); p != nil {
		t.Fatalf("nil Active Prov = %v, want nil", p)
	}
	if id := a.ID(); id != 0 {
		t.Fatalf("nil Active ID = %d, want 0", id)
	}
	a.Finish("ok")
	a.Finish("ok") // double finish must be a no-op too
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v, want zero", st)
	}
	if got := tr.Kept(); got != nil {
		t.Fatalf("nil tracer Kept = %v, want nil", got)
	}

	var fr *FlightRecorder
	fr.Note(1, "k", "s", "d")
	if p := fr.Trigger(1, "r"); p != "" {
		t.Fatalf("nil recorder Trigger = %q, want empty", p)
	}
	if ev := fr.Events(); ev != nil {
		t.Fatalf("nil recorder Events = %v, want nil", ev)
	}
}

// TestTailKeepAndHeadSampling: flagged traces always survive; unflagged
// traces survive per the head draw, and the draw is a pure function of
// (seed, trace ID) — two tracers with the same seed keep identical sets.
func TestTailKeepAndHeadSampling(t *testing.T) {
	run := func() (*Tracer, []uint64) {
		tr := New(Config{SampleRate: 0.3, Ring: 64, Seed: 42})
		var keptIDs []uint64
		for i := 0; i < 200; i++ {
			flags := uint8(0)
			if i%17 == 0 {
				flags = FlagExpired
			}
			a := finishOne(tr, "m", "ok", flags)
			_ = a
		}
		for _, kt := range tr.Kept() {
			keptIDs = append(keptIDs, kt.ID)
		}
		return tr, keptIDs
	}
	tr1, ids1 := run()
	_, ids2 := run()
	if !reflect.DeepEqual(ids1, ids2) {
		t.Fatalf("replay kept different traces:\n%v\n%v", ids1, ids2)
	}
	st := tr1.Stats()
	if st.Started != 200 || st.Kept+st.Dropped != 200 {
		t.Fatalf("conservation broken: %+v", st)
	}
	if st.Sampled == 0 || st.Sampled == st.Kept {
		t.Fatalf("want a mix of head-sampled and tail-kept traces, got %+v", st)
	}
	// Every flagged trace still inside the ring window must have been kept
	// (tail-based keep-all), and carry its flag.
	inRing := map[uint64]uint8{}
	for _, kt := range tr1.Kept() {
		inRing[kt.ID] = kt.Flags
	}
	sawFlagged := false
	for id, flags := range inRing {
		if (id-1)%17 == 0 {
			sawFlagged = true
			if flags&FlagExpired == 0 {
				t.Fatalf("flagged trace %d kept without its flag", id)
			}
		}
	}
	if !sawFlagged {
		t.Fatal("no tail-kept trace survived in the ring")
	}
}

// TestZeroRateKeepsOnlyFlagged: SampleRate 0 is tail-only.
func TestZeroRateKeepsOnlyFlagged(t *testing.T) {
	tr := New(Config{SampleRate: 0, Ring: 16})
	finishOne(tr, "m", "ok", 0)
	finishOne(tr, "m", "failed", FlagFailed)
	kept := tr.Kept()
	if len(kept) != 1 || kept[0].Flags != FlagFailed {
		t.Fatalf("want exactly the flagged trace kept, got %+v", kept)
	}
	if st := tr.Stats(); st.Sampled != 0 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRingEvictionAndOccupancy: the ring holds the newest keeps and
// occupancy tops out at capacity.
func TestRingEvictionAndOccupancy(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 8})
	for i := 0; i < 20; i++ {
		finishOne(tr, "m", "ok", 0)
	}
	kept := tr.Kept()
	if len(kept) != 8 {
		t.Fatalf("ring holds %d, want 8", len(kept))
	}
	// Oldest first, newest last: IDs 13..20.
	for i, kt := range kept {
		if want := uint64(13 + i); kt.ID != want {
			t.Fatalf("kept[%d].ID = %d, want %d", i, kt.ID, want)
		}
	}
	if st := tr.Stats(); st.RingLen != 8 || st.RingCap != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestProvenanceRoundTrip: the provenance slot survives pooling and deep
// copies intact.
func TestProvenanceRoundTrip(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 4})
	for i := 0; i < 12; i++ { // recycle pooled traces several times
		finishOne(tr, "m", "ok", 0)
	}
	kt, ok := tr.Lookup(12)
	if !ok {
		t.Fatal("trace 12 not kept")
	}
	if !kt.HasProv || !kt.Prov.Explored || kt.Prov.StateIdx != 7 || kt.Prov.Action != "edge" {
		t.Fatalf("provenance lost: %+v", kt.Prov)
	}
	if want := []float64{0.5, -0.25, 1.75}; !reflect.DeepEqual(kt.Prov.Q, want) {
		t.Fatalf("Q = %v, want %v", kt.Prov.Q, want)
	}
	if want := []bool{true, false, true}; !reflect.DeepEqual(kt.Prov.Mask, want) {
		t.Fatalf("Mask = %v, want %v", kt.Prov.Mask, want)
	}
}

// TestChromeExport: the chrome trace-event document is well-formed, spans
// lay out cumulatively, and the decide span carries the provenance args.
func TestChromeExport(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 8})
	finishOne(tr, "resnet", "ok", 0)
	body, err := tr.ChromeJSON(1)
	if err != nil {
		t.Fatalf("ChromeJSON: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var decide map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "decide" {
			decide = ev
		}
	}
	if decide == nil {
		t.Fatalf("no decide event in %s", body)
	}
	args, _ := decide["args"].(map[string]any)
	if args == nil || args["explored"] != true || args["action"] != "edge" {
		t.Fatalf("decide args missing provenance: %v", args)
	}
	if _, ok := args["q"].([]any); !ok {
		t.Fatalf("decide args missing q: %v", args)
	}
	if _, err := tr.ChromeJSON(999); err == nil {
		t.Fatal("unknown trace ID exported without error")
	}
}

// TestIndexJSON: the /traces document carries stats and per-trace rows.
func TestIndexJSON(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 8})
	finishOne(tr, "resnet", "ok", 0)
	finishOne(tr, "bert", "expired", FlagExpired)
	body, err := tr.IndexJSON()
	if err != nil {
		t.Fatalf("IndexJSON: %v", err)
	}
	var idx Index
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("index is not JSON: %v", err)
	}
	if idx.Stats.Kept != 2 || len(idx.Traces) != 2 {
		t.Fatalf("index = %+v", idx)
	}
	if !reflect.DeepEqual(idx.Traces[1].Flags, []string{"expired"}) {
		t.Fatalf("flags = %v", idx.Traces[1].Flags)
	}
}

// TestAppendPromOnce: every autoscale_trace_* series appears with exactly
// one HELP/TYPE header (the PR 7 encoder contract), and a nil tracer emits
// nothing.
func TestAppendPromOnce(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 8})
	finishOne(tr, "m", "ok", 0)
	var p obs.Prom
	tr.AppendProm(&p)
	body := string(p.Bytes())
	for _, name := range []string{
		"autoscale_trace_started_total",
		"autoscale_trace_sampled_total",
		"autoscale_trace_kept_total",
		"autoscale_trace_dropped_total",
		"autoscale_trace_ring_occupancy",
		"autoscale_trace_ring_capacity",
	} {
		if got := strings.Count(body, "# HELP "+name+" "); got != 1 {
			t.Fatalf("HELP %s appears %d times, want 1\n%s", name, got, body)
		}
		if got := strings.Count(body, "# TYPE "+name+" "); got != 1 {
			t.Fatalf("TYPE %s appears %d times, want 1\n%s", name, got, body)
		}
	}
	var nilP obs.Prom
	var nilTr *Tracer
	nilTr.AppendProm(&nilP)
	if len(nilP.Bytes()) != 0 {
		t.Fatalf("nil tracer emitted %q", nilP.Bytes())
	}
}

// TestFlightRecorder: the event ring bounds and orders events, Trigger
// writes a bounded number of bundles, and a bundle carries events + traces.
func TestFlightRecorder(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 8})
	finishOne(tr, "m", "ok", 0)
	dir := t.TempDir()
	fr := NewFlightRecorder(tr, dir, 4, 2)
	for i := 0; i < 10; i++ {
		fr.Note(float64(i), "breaker", "edge", "closed->open")
	}
	ev := fr.Events()
	if len(ev) != 4 || ev[0].AtS != 6 || ev[3].AtS != 9 {
		t.Fatalf("event ring = %+v", ev)
	}

	p1 := fr.Trigger(10, "cordon shard-0")
	if p1 == "" {
		t.Fatal("first trigger wrote no bundle")
	}
	body, err := os.ReadFile(p1)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	var b Bundle
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("bundle is not JSON: %v", err)
	}
	if b.Reason != "cordon shard-0" || len(b.Events) != 4 || len(b.Traces) != 1 {
		t.Fatalf("bundle = reason %q, %d events, %d traces", b.Reason, len(b.Events), len(b.Traces))
	}
	if !b.Traces[0].HasProv || len(b.Traces[0].Prov.Q) == 0 {
		t.Fatalf("bundle trace lost provenance: %+v", b.Traces[0])
	}

	fr.Trigger(11, "again")
	if p3 := fr.Trigger(12, "over budget"); p3 != "" {
		t.Fatalf("third trigger wrote %q, want dump cap to hold", p3)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(files) != 2 {
		t.Fatalf("found %d bundles, want 2: %v", len(files), files)
	}
	if n, err := fr.Dumps(); n != 3 || err != nil {
		t.Fatalf("Dumps = %d, %v", n, err)
	}
}

// TestConcurrentFinishAndRead: keeps, snapshots and stats race-cleanly.
func TestConcurrentFinishAndRead(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 16})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				finishOne(tr, "m", "ok", 0)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Kept()
			tr.Stats()
			tr.IndexJSON()
		}
	}()
	wg.Wait()
	<-done
	if st := tr.Stats(); st.Started != 800 || st.Kept != 800 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFinishAfterFinish: a second Finish (e.g. a defensive call site) must
// not corrupt the pooled trace another request now owns.
func TestFinishAfterFinish(t *testing.T) {
	tr := New(Config{SampleRate: 1, Ring: 4})
	a := tr.Start("m", "t", 0)
	a.Finish("ok")
	a.Finish("failed") // no-op
	a.Span("late", 1, "")
	if st := tr.Stats(); st.Kept != 1 {
		t.Fatalf("stats = %+v", st)
	}
	kt, ok := tr.Lookup(1)
	if !ok || kt.Status != "ok" || len(kt.Spans) != 0 {
		t.Fatalf("trace corrupted by post-finish calls: %+v", kt)
	}
}
