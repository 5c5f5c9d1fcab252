package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"autoscale/internal/dnn"
	"autoscale/internal/obs"
	"autoscale/internal/tracez"
)

// adminGet fetches a path from the admin server.
func adminGet(t *testing.T, a *Admin, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get("http://" + a.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestAdminEndpoints(t *testing.T) {
	g := testGateway(t, Config{})
	a, err := ServeAdmin(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 40; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// /healthz is alive before shutdown.
	code, _, body := adminGet(t, a, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// /metrics serves the exposition format with the full series set.
	code, ctype, body := adminGet(t, a, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ctype != obs.PromContentType {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"autoscale_requests_submitted_total 40",
		`autoscale_requests_total{outcome="served"} 40`,
		"# TYPE autoscale_request_latency_seconds histogram",
		"autoscale_request_latency_seconds_count 40",
		"# TYPE autoscale_queue_wait_seconds histogram",
		"# TYPE autoscale_request_energy_joules histogram",
		`autoscale_phase_seconds_count{phase="execute"} 40`,
		`autoscale_phase_seconds_count{phase="decide"} 40`,
		`autoscale_phase_seconds_count{phase="queue"} 40`,
		`autoscale_rl_epsilon{device="GalaxyS10e"} 0.1`,
		`autoscale_rl_epsilon{device="Mi8Pro"} 0.1`,
		`autoscale_rl_state_space_size{device="Mi8Pro"}`,
		`autoscale_rl_coverage{device="Mi8Pro"}`,
		`autoscale_rl_td_error_ema{device="Mi8Pro"}`,
		`autoscale_rl_visit_entropy{device="Mi8Pro"}`,
		`autoscale_rl_mean_reward{device="Mi8Pro"}`,
		`autoscale_executions_total{location=`,
		`autoscale_device_requests_total{device="Mi8Pro"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	assertHistogramsWellFormed(t, body)

	// A second scrape with no traffic in between is byte-identical — the
	// exposition is deterministic and scraping mutates nothing.
	_, _, body2 := adminGet(t, a, "/metrics")
	if body != body2 {
		t.Error("idle rescrape changed the exposition body")
	}

	// /snapshot.json carries metrics and per-device health.
	code, ctype, body = adminGet(t, a, "/snapshot.json")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/snapshot.json = %d %q", code, ctype)
	}
	var snap struct {
		Metrics struct{ Served int64 }
		Health  map[string]struct {
			Algorithm string  `json:"algorithm"`
			Coverage  float64 `json:"coverage"`
		}
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot.json decode: %v", err)
	}
	if snap.Metrics.Served != 40 {
		t.Fatalf("snapshot served = %d", snap.Metrics.Served)
	}
	if h, ok := snap.Health["Mi8Pro"]; !ok || h.Algorithm != "Q-learning" || h.Coverage <= 0 {
		t.Fatalf("snapshot health: %+v", snap.Health)
	}

	// /breakers decodes as a JSON object.
	code, _, body = adminGet(t, a, "/breakers")
	if code != http.StatusOK {
		t.Fatalf("/breakers = %d", code)
	}
	var breakers map[string]string
	if err := json.Unmarshal([]byte(body), &breakers); err != nil {
		t.Fatalf("/breakers decode: %v", err)
	}

	// pprof is mounted.
	code, _, _ = adminGet(t, a, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// After Shutdown the probe flips to 503 while /metrics stays readable
	// for a final scrape.
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, _ = adminGet(t, a, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after shutdown = %d", code)
	}
	code, _, _ = adminGet(t, a, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics after shutdown = %d", code)
	}
}

// assertHistogramsWellFormed checks every histogram series in an exposition
// body: cumulative buckets are non-decreasing per series and the +Inf bucket
// equals the series count.
func assertHistogramsWellFormed(t *testing.T, body string) {
	t.Helper()
	lastCum := map[string]float64{}  // series key -> last cumulative value
	infCount := map[string]float64{} // series key -> +Inf bucket value
	counts := map[string]float64{}   // series key -> _count value
	for _, ln := range strings.Split(body, "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		name, valStr := ln[:sp], ln[sp+1:]
		if valStr == "+Inf" {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", ln, err)
		}
		switch {
		case strings.Contains(name, "_bucket{"):
			key := stripLabel(name, "le")
			if v < lastCum[key] {
				t.Fatalf("cumulative decreased: %q after %v", ln, lastCum[key])
			}
			lastCum[key] = v
			if strings.Contains(name, `le="+Inf"`) {
				infCount[key] = v
			}
		case strings.Contains(name, "_count"):
			counts[strings.Replace(name, "_count", "_bucket", 1)] = v
		}
	}
	if len(infCount) == 0 {
		t.Fatal("no histogram buckets found")
	}
	for key, inf := range infCount {
		if want, ok := counts[key]; ok && inf != want {
			t.Fatalf("series %s: +Inf bucket %v != count %v", key, inf, want)
		}
	}
}

// stripLabel removes one label (e.g. le) from a sample name so bucket lines
// of one series share a key.
func stripLabel(name, label string) string {
	i := strings.Index(name, label+`="`)
	if i < 0 {
		return name
	}
	j := strings.Index(name[i+len(label)+2:], `"`)
	if j < 0 {
		return name
	}
	out := name[:i] + name[i+len(label)+2+j+1:]
	return strings.NewReplacer(`{,`, `{`, `,}`, `}`, `,,`, `,`).Replace(out)
}

func TestServeAdminValidation(t *testing.T) {
	if _, err := ServeAdmin(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("nil gateway accepted")
	}
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background()) //nolint:errcheck
	if _, err := ServeAdmin(g, "256.0.0.1:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
	// Two admins on distinct ports can serve one gateway.
	a1, err := ServeAdmin(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := ServeAdmin(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a1.Addr() == a2.Addr() {
		t.Fatal("two admins share an address")
	}
}

func TestPromTextDeterministic(t *testing.T) {
	g := testGateway(t, Config{})
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 10; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Shutdown(context.Background()) //nolint:errcheck
	s, h := g.Snapshot(), g.Health()
	var p1, p2 obs.Prom
	AppendProm(&p1, s, h)
	AppendProm(&p2, s, h)
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("AppendProm is not deterministic for a fixed snapshot")
	}
	// Sanity: the body parses line by line as "name value" or comments.
	for _, ln := range strings.Split(strings.TrimSuffix(string(p1.Bytes()), "\n"), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if sp := strings.LastIndexByte(ln, ' '); sp <= 0 {
			t.Fatalf("malformed sample line %q", ln)
		}
	}
}

// TestAdminCloseDrains pins the admin-shutdown satellite: Close performs a
// context-bounded graceful drain, the listener stops accepting, and the
// server's goroutines are released rather than leaked.
func TestAdminCloseDrains(t *testing.T) {
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background()) //nolint:errcheck

	before := runtime.NumGoroutine()
	a, err := ServeAdmin(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Get("http://" + a.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	client.CloseIdleConnections()
	if _, err := client.Get("http://" + a.Addr() + "/healthz"); err == nil {
		t.Fatal("admin accepted a connection after Close")
	}
	client.CloseIdleConnections()

	// The serve loop and any idle-connection goroutines must wind down;
	// allow scheduler slack but fail on a persistent leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdminTraceEndpoints covers the /traces surface: the index, single-trace
// JSON, chrome and binary formats, bad-id handling, and the autoscale_trace_*
// series appearing in /metrics.
func TestAdminTraceEndpoints(t *testing.T) {
	tr := tracez.New(tracez.Config{SampleRate: 1, Ring: 64, Seed: 3})
	g := testGateway(t, Config{Tracer: tr})
	defer g.Shutdown(context.Background()) //nolint:errcheck
	a, err := ServeAdmin(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 20; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Index: every request kept at sample rate 1, with provenance.
	code, ctype, body := adminGet(t, a, "/traces")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/traces = %d %q", code, ctype)
	}
	var idx tracez.Index
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/traces decode: %v", err)
	}
	if idx.Stats.Kept != 20 || len(idx.Traces) != 20 {
		t.Fatalf("index kept=%d rows=%d, want 20", idx.Stats.Kept, len(idx.Traces))
	}
	id := idx.Traces[0].ID
	if !idx.Traces[0].HasProv {
		t.Fatalf("kept trace %d has no provenance", id)
	}

	// Single trace as raw JSON exposes the decide provenance.
	code, _, body = adminGet(t, a, "/traces/"+strconv.FormatUint(id, 10))
	if code != http.StatusOK {
		t.Fatalf("/traces/%d = %d", id, code)
	}
	var one tracez.Trace
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if one.ID != id || len(one.Prov.Q) == 0 || len(one.Spans) == 0 {
		t.Fatalf("trace %d: spans=%d qlen=%d", one.ID, len(one.Spans), len(one.Prov.Q))
	}

	// Chrome trace-event export carries the provenance in the decide args.
	code, _, body = adminGet(t, a, "/traces/"+strconv.FormatUint(id, 10)+"?format=chrome")
	if code != http.StatusOK || !strings.Contains(body, "traceEvents") ||
		!strings.Contains(body, `"state_idx"`) {
		t.Fatalf("chrome export = %d, body %.120s", code, body)
	}

	// Explicit json is the default's alias; error paths: malformed id, id 0,
	// unknown id, unknown format (bin included).
	for path, want := range map[string]int{
		"/traces?format=json": http.StatusOK,
		"/traces/" + strconv.FormatUint(id, 10) + "?format=json": http.StatusOK,
		"/traces/abc":        http.StatusBadRequest,
		"/traces/0":          http.StatusBadRequest,
		"/traces/999999":     http.StatusNotFound,
		"/traces?format=wat": http.StatusBadRequest,
		"/traces/" + strconv.FormatUint(id, 10) + "?format=wat": http.StatusBadRequest,
		"/traces?format=bin": http.StatusBadRequest,
		"/traces/" + strconv.FormatUint(id, 10) + "?format=bin": http.StatusBadRequest,
	} {
		if code, _, _ := adminGet(t, a, path); code != want {
			t.Errorf("%s = %d, want %d", path, code, want)
		}
	}

	// /metrics gains the trace series.
	_, _, body = adminGet(t, a, "/metrics")
	for _, want := range []string{
		"autoscale_trace_started_total 20",
		"autoscale_trace_kept_total 20",
		"# TYPE autoscale_trace_started_total counter",
		"autoscale_trace_ring_occupancy 20",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdminTracesWithoutTracer: a gateway with no tracer 404s the trace
// endpoints instead of panicking or returning empty documents.
func TestAdminTracesWithoutTracer(t *testing.T) {
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background()) //nolint:errcheck
	a, err := ServeAdmin(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, path := range []string{"/traces", "/traces/1"} {
		if code, _, _ := adminGet(t, a, path); code != http.StatusNotFound {
			t.Errorf("%s without tracer = %d, want 404", path, code)
		}
	}
}

func TestGatewayHealthPerDevice(t *testing.T) {
	g := testGateway(t, Config{})
	defer g.Shutdown(context.Background()) //nolint:errcheck
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 20; i++ {
		if _, err := g.Do(Request{Model: m, Conditions: conds(), Device: "Mi8Pro"}); err != nil {
			t.Fatal(err)
		}
	}
	h := g.Health()
	if len(h) != 2 {
		t.Fatalf("health for %d devices", len(h))
	}
	if h["Mi8Pro"].Selections != 20 {
		t.Fatalf("Mi8Pro selections = %d", h["Mi8Pro"].Selections)
	}
	if h["GalaxyS10e"].Selections != 0 {
		t.Fatalf("idle device selections = %d", h["GalaxyS10e"].Selections)
	}
	if h["Mi8Pro"].VirtualS <= 0 {
		t.Fatal("served device's virtual clock did not advance")
	}
}
