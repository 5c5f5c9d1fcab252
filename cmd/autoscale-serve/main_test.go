package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"autoscale"
)

func quick(t *testing.T) config {
	t.Helper()
	return config{
		devices: []string{"Mi8Pro", "GalaxyS10e"},
		model:   "MobileNet v1",
		envID:   "S1",
		n:       40,
		clients: 4,
		shed:    "newest",
		seed:    1,
	}
}

func TestRunClosedLoop(t *testing.T) {
	if err := run(quick(t), os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunOpenLoopWithDeadline(t *testing.T) {
	c := quick(t)
	c.rate = 5000 // fast open loop
	c.deadline = 50 * time.Millisecond
	c.shed = "oldest"
	c.failover = true
	c.n = 30
	if err := run(c, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesSnapshots(t *testing.T) {
	c := quick(t)
	c.n = 20
	c.snapdir = t.TempDir()
	c.sync = time.Hour // exercise the sync wiring; only shutdown will flush
	if err := run(c, os.Stdout); err != nil {
		t.Fatal(err)
	}
	store, err := autoscale.OpenPolicyStore(c.snapdir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range c.devices {
		ck, err := store.Latest(dev)
		if err != nil {
			t.Fatalf("missing checkpoint for %s: %v", dev, err)
		}
		if ck.Generation != 1 || ck.States == 0 {
			t.Fatalf("degenerate checkpoint for %s: %+v", dev, ck.Meta)
		}
	}
	// A second run against the same store warm-starts and flushes gen 2.
	if err := run(c, os.Stdout); err != nil {
		t.Fatal(err)
	}
	for _, dev := range c.devices {
		ck, err := store.Latest(dev)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Generation != 2 {
			t.Fatalf("restarted fleet wrote gen %d for %s, want 2", ck.Generation, dev)
		}
	}
}

// TestRunAdminEndpoint boots a load with -admin and -linger, scrapes
// /metrics and /healthz while the gateway lingers, and checks the exposition
// carries the request counters and learning-health gauges.
func TestRunAdminEndpoint(t *testing.T) {
	c := quick(t)
	c.n = 30
	c.admin = "127.0.0.1:0"
	c.linger = 3 * time.Second

	f, err := os.Create(t.TempDir() + "/out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() { done <- run(c, f) }()

	// The address is printed before the load starts; poll the output file.
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == "" && time.Now().Before(deadline); {
		b, _ := os.ReadFile(f.Name())
		for _, ln := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(ln, "admin listening on http://"); ok {
				addr = rest
			}
		}
		if addr == "" {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("admin address never printed; run: %v", <-done)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d during linger", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"autoscale_requests_submitted_total",
		"autoscale_request_latency_seconds_bucket",
		`autoscale_rl_epsilon{device="Mi8Pro"}`,
		`autoscale_rl_coverage{device="GalaxyS10e"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out, _ := os.ReadFile(f.Name())
	if !strings.Contains(string(out), "learning health:") {
		t.Error("final report lacks the learning-health summary")
	}
}

// TestRunPlanned drives the planner path end to end: SLO classes become the
// fairness tenants, the final report carries the plan decision and per-class
// attainment lines, and the same seed reproduces the same plan summary.
func TestRunPlanned(t *testing.T) {
	c := quick(t)
	c.plan = true
	c.replicas = 2
	c.shards = 2
	c.n = 200
	// One client keeps the drive fully sequential, so the plan decision
	// sequence is a pure function of the seed and the summaries must match
	// byte for byte across runs.
	c.clients = 1
	planReport := func() string {
		f, err := os.Create(t.TempDir() + "/out")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := run(c, f); err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(f.Name())
		out := string(b)
		if i := strings.Index(out, "\nplan:"); i >= 0 {
			return out[i:]
		}
		return ""
	}
	report := planReport()
	if report == "" {
		t.Fatal("planned run printed no plan summary")
	}
	for _, want := range []string{"plan: generation", "slo gold", "slo silver", "slo best", "target p95"} {
		if !strings.Contains(report, want) {
			t.Errorf("plan summary missing %q:\n%s", want, report)
		}
	}
	if again := planReport(); again != report {
		t.Errorf("same seed produced different plan summaries:\n%s\nvs\n%s", report, again)
	}
}

func TestRunPlannedRejectsBadFlags(t *testing.T) {
	c := quick(t)
	c.sloClasses = "gold:250ms"
	if err := run(c, os.Stdout); err == nil {
		t.Error("-slo-classes without -plan accepted")
	}
	c = quick(t)
	c.plan = true
	c.tenants = "gold:4"
	if err := run(c, os.Stdout); err == nil {
		t.Error("-plan with -tenants accepted")
	}
	c = quick(t)
	c.plan = true
	c.sloClasses = "gold:not-a-duration"
	if err := run(c, os.Stdout); err == nil {
		t.Error("bad -slo-classes spec accepted")
	}
}

func TestRunLingerNeedsAdmin(t *testing.T) {
	c := quick(t)
	c.linger = time.Second
	if err := run(c, os.Stdout); err == nil {
		t.Error("-linger without -admin accepted")
	}
}

func TestRunSyncNeedsStore(t *testing.T) {
	c := quick(t)
	c.sync = time.Second
	if err := run(c, os.Stdout); err == nil {
		t.Error("-sync without -snapshots accepted")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	c := quick(t)
	c.shed = "random"
	if err := run(c, os.Stdout); err == nil {
		t.Error("bad shed policy accepted")
	}
	c = quick(t)
	c.model = "AlexNet"
	if err := run(c, os.Stdout); err == nil {
		t.Error("unknown model accepted")
	}
	c = quick(t)
	c.devices = []string{"iPhone"}
	if err := run(c, os.Stdout); err == nil {
		t.Error("unknown device accepted")
	}
	c = quick(t)
	c.envID = "S9"
	if err := run(c, os.Stdout); err == nil {
		t.Error("unknown environment accepted")
	}
}

// TestExpectedFailure: a chaos storm can leave no shard to route to for a
// moment (one dead, the other cordoned); that request's error is an outcome
// the router counted, and must not abort the flood before the audit. Outside
// chaos mode the same error is a real failure.
func TestExpectedFailure(t *testing.T) {
	for _, tc := range []struct {
		err   error
		chaos bool
		want  bool
	}{
		{autoscale.ErrQueueFull, false, true},
		{autoscale.ErrDeadlineExpired, false, true},
		{autoscale.ErrNoHealthyShard, false, false},
		{autoscale.ErrNoHealthyShard, true, true},
		{fmt.Errorf("wrapped: %w", autoscale.ErrShardDown), true, true},
		{autoscale.ErrUnknownTenant, true, false},
	} {
		if got := expectedFailure(tc.err, tc.chaos); got != tc.want {
			t.Errorf("expectedFailure(%v, chaos=%v) = %v, want %v", tc.err, tc.chaos, got, tc.want)
		}
	}
}
