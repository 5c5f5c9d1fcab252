package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
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
		train:   1, // donor training budget; read only with -donor
		seed:    1,
		// main's default; read only with -chaos
		chaosIntensity: 0.7,
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

// TestRunSyncIsReproducible: -sync passes tick on the virtual clock, so two
// single-client runs of one seed report the same number of passes and leave
// byte-identical checkpoint stores.
func TestRunSyncIsReproducible(t *testing.T) {
	passes := regexp.MustCompile(`policy sync: (\d+) passes`)
	var reports []string
	var stores []map[string]string
	for i := 0; i < 2; i++ {
		c := quick(t)
		c.clients = 1
		c.snapdir = t.TempDir()
		c.sync = 100 * time.Millisecond
		out, err := report(t, c)
		if err != nil {
			t.Fatal(err)
		}
		m := passes.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("report has no policy sync line:\n%s", out)
		}
		if n, _ := strconv.Atoi(m[1]); n < 1 {
			t.Fatalf("run %d crossed no sync interval: %s", i, m[0])
		}
		reports = append(reports, m[0])
		store := map[string]string{}
		err = filepath.WalkDir(c.snapdir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(c.snapdir, path)
			store[rel] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, store)
	}
	if reports[0] != reports[1] {
		t.Fatalf("same seed, different sync reports: %q vs %q", reports[0], reports[1])
	}
	if !reflect.DeepEqual(stores[0], stores[1]) {
		t.Fatalf("same seed, different stores: %d vs %d files", len(stores[0]), len(stores[1]))
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

// report runs c and returns what it printed.
func report(t *testing.T, c config) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(c, f)
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// An observation checks one run's report (or error) against the reference
// run without the flag; it returns "" when the flag shows.
type observation func(out, ref string, err error) string

// shows: the report carries frag.
func shows(frag string) observation {
	return func(out, _ string, err error) string {
		if err != nil {
			return "run failed: " + err.Error()
		}
		if !strings.Contains(out, frag) {
			return fmt.Sprintf("report lacks %q", frag)
		}
		return ""
	}
}

// fails: the run returns an error naming frag.
func fails(frag string) observation {
	return func(_, _ string, err error) string {
		if err == nil || !strings.Contains(err.Error(), frag) {
			return fmt.Sprintf("error %v, want one naming %q", err, frag)
		}
		return ""
	}
}

// counts: the snapshot line name reads a count satisfying ok.
func counts(name string, ok func(int) bool) observation {
	re := regexp.MustCompile(`(?m)^` + name + `\s+(\d+)`)
	return func(out, _ string, err error) string {
		if err != nil {
			return "run failed: " + err.Error()
		}
		m := re.FindStringSubmatch(out)
		if m == nil {
			return fmt.Sprintf("report has no %q line", name)
		}
		if n, _ := strconv.Atoi(m[1]); !ok(n) {
			return fmt.Sprintf("%s = %d", name, n)
		}
		return ""
	}
}

// coveredAtLeast: every learning-health line reports at least min states.
func coveredAtLeast(min int) observation {
	re := regexp.MustCompile(`\((\d+)/\d+ states\)`)
	return func(out, _ string, err error) string {
		if err != nil {
			return "run failed: " + err.Error()
		}
		ms := re.FindAllStringSubmatch(out, -1)
		if len(ms) == 0 {
			return "report has no learning-health lines"
		}
		for _, m := range ms {
			if n, _ := strconv.Atoi(m[1]); n < min {
				return fmt.Sprintf("an engine covers %d states, want >= %d", n, min)
			}
		}
		return ""
	}
}

// planDiffers: the plan summary differs from the reference run's.
func planDiffers(out, ref string, err error) string {
	if err != nil {
		return "run failed: " + err.Error()
	}
	plan := func(s string) string {
		if i := strings.Index(s, "\nplan:"); i >= 0 {
			return s[i:]
		}
		return ""
	}
	if p := plan(out); p == "" || p == plan(ref) {
		return "plan summary matches the reference run's"
	}
	return ""
}

// TestEveryFlagIsObservable turns each flag of the command, one per row,
// away from quick() and asserts what the report (or the returned error)
// shows for it; the same observation must not hold for the reference run
// without the flag. A flag that acts only in a regime quick() does not
// reach names that regime in base (its reference run is quick()+base). A
// row may instead name an existing test that observes its flag. The rows
// must cover exactly the flags main defines.
func TestEveryFlagIsObservable(t *testing.T) {
	rows := []struct {
		flag string
		base func(*config)
		set  func(*config)
		want observation
		test string // existing test observing the flag, instead of want
	}{
		{flag: "devices", set: func(c *config) { c.devices = []string{"MotoXForce"} }, want: shows("on MotoXForce —")},
		{flag: "donor", set: func(c *config) { c.donor = "Mi8Pro" }, want: coveredAtLeast(500)},
		{flag: "train", base: func(c *config) { c.donor = "Mi8Pro" }, set: func(c *config) { c.train = 2 },
			want: shows("donor trained 2 runs per")},
		{flag: "model", set: func(c *config) { c.model = "ResNet 50" }, want: shows(`serving "ResNet 50"`)},
		{flag: "env", set: func(c *config) { c.envID = "D4" }, want: shows("in D4 on")},
		{flag: "n", set: func(c *config) { c.n = 30 }, want: counts("submitted", func(n int) bool { return n == 30 })},
		{flag: "clients", set: func(c *config) { c.clients = 2 }, want: shows("2 clients")},
		{flag: "rate", set: func(c *config) { c.rate = 5000 }, want: shows("Poisson 5000 req/s per client")},
		{flag: "queue", set: func(c *config) { c.queue = -1 }, want: fails("negative queue depth")},
		{flag: "deadline", set: func(c *config) { c.deadline = time.Nanosecond },
			want: counts("expired", func(n int) bool { return n > 0 })},
		{flag: "shed", test: "TestRunRejectsBadInput"},
		{flag: "snapshots", test: "TestRunWritesSnapshots"},
		{flag: "sync", base: func(c *config) { c.snapdir = t.TempDir() }, set: func(c *config) { c.sync = 100 * time.Millisecond },
			want: counts("policy sync:", func(n int) bool { return n >= 1 })},
		{flag: "faults", set: func(c *config) { c.faults = "../../examples/faults/storm.json" },
			want: shows("injecting fault schedule")},
		{flag: "chaos", set: func(c *config) { c.chaos = true }, want: fails("-chaos supervises the routing tier")},
		{flag: "chaos-intensity", base: func(c *config) { c.chaos, c.shards, c.replicas = true, 2, 2 },
			set: func(c *config) { c.chaosIntensity = 0.5 }, want: shows("intensity 0.50")},
		{flag: "admin", test: "TestRunAdminEndpoint"},
		{flag: "linger", test: "TestRunAdminEndpoint"},
		{flag: "shards", set: func(c *config) { c.shards = 2 }, want: shows("over 2 shards")},
		{flag: "replicas", set: func(c *config) { c.replicas = 2 }, want: fails("-replicas lays lanes over the routing tier")},
		{flag: "tenants", set: func(c *config) { c.tenants = "gold:4,best:1" }, want: shows("tenants gold/best")},
		{flag: "plan", test: "TestRunPlanned"},
		{flag: "slo-classes", test: "TestRunPlannedRejectsBadFlags"},
		{flag: "trace-sample", set: func(c *config) { c.traceSample = 1 }, want: shows("traces: started 40")},
		{flag: "flight-recorder", set: func(c *config) { c.flightDir = t.TempDir() }, want: shows("flight recorder: ")},
		// One client and the planner's virtual arrivals make the plan
		// summary a pure function of the seed (see TestRunPlanned).
		{flag: "seed", base: func(c *config) { c.plan, c.clients, c.n = true, 1, 200 },
			set: func(c *config) { c.seed = 2 }, want: planDiffers},
	}

	tests := map[string]bool{}
	for _, d := range parseFile(t, "main_test.go").Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			tests[fn.Name.Name] = true
		}
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.flag] = true
		if r.test != "" {
			if !tests[r.test] {
				t.Errorf("-%s names %s, which this package does not define", r.flag, r.test)
			}
			continue
		}
		t.Run(r.flag, func(t *testing.T) {
			c := quick(t)
			if r.base != nil {
				r.base(&c)
			}
			ref, refErr := report(t, c)
			if r.want(ref, ref, refErr) == "" {
				t.Fatalf("the reference run without -%s already shows the observation", r.flag)
			}
			r.set(&c)
			out, err := report(t, c)
			if msg := r.want(out, ref, err); msg != "" {
				t.Fatalf("-%s: %s\n%s", r.flag, msg, out)
			}
		})
	}
	defined := definedFlags(t)
	for _, f := range defined {
		if !covered[f] {
			t.Errorf("flag -%s has no row", f)
		}
	}
	if len(covered) != len(defined) {
		t.Errorf("%d rows for %d defined flags", len(covered), len(defined))
	}
}

func parseFile(t *testing.T, name string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// definedFlags lists the names main.go registers with the flag package.
func definedFlags(t *testing.T) []string {
	t.Helper()
	var names []string
	ast.Inspect(parseFile(t, "main.go"), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			names = append(names, name)
		}
		return true
	})
	return names
}
