package main

import (
	"math/rand"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"autoscale/internal/serve"
)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest(filepath.Join("..", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestLimits holds BENCHMARK.json to the benchmark contract's
// limits, so a later edit cannot push it past what the driver accepts.
func TestManifestLimits(t *testing.T) {
	man := testManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", man.RunSeconds)
	}

	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var declared []string
	for _, w := range man.Workloads {
		use(w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	var registered []string
	for _, w := range workloads {
		registered = append(registered, w.name)
	}
	if !slices.Equal(declared, registered) {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness runs %v", declared, registered)
	}

	hasSetup := false
	for _, d := range man.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error(`no end-to-end metric "setup_s" with unit s, better lower`)
	}
	for _, d := range man.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	for _, d := range append(slices.Clone(man.EndToEnd), man.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for n := range gatedPerLayer {
		if _, ok := man.unitOf(n); !ok {
			t.Errorf("-compare gates %s, which BENCHMARK.json does not declare", n)
		}
	}
}

// TestEveryDeclaredMetricIsEmitted runs every workload at 1/200 scale, both
// passes: each must measure every end-to-end metric, emit every per-layer
// metric, emit nothing undeclared (measure rejects that) and pass its own
// output checks.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	man := testManifest(t)
	p := params{seed: 7, seconds: float64(man.RunSeconds), shrink: 200, outDir: t.TempDir()}
	climb := sync.OnceValues(func() (map[string]float64, error) { return ladder(p) })
	for _, w := range workloads {
		out, err := measure(man, w, p, true, true, climb)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if !out.Correct {
			t.Errorf("%s: output checks failed: %v", w.name, out.Checks)
		}
		if out.Attempted < 1 || out.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, out.Attempted, out.Failed)
		}
		for _, d := range man.EndToEnd {
			if _, ok := out.EndToEnd[d.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", w.name, d.Name)
			}
		}
		if len(out.EndToEnd) != len(man.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(out.EndToEnd), len(man.EndToEnd))
		}
		if len(out.PerLayer) != len(man.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.name, len(out.PerLayer), len(man.PerLayer))
		}
	}
}

func TestPercentileAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = rng.Int31n(50) // ties on purpose
		}
		sorted := slices.Clone(vals)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 1} {
			// Reference: the smallest value with at least q*n samples at or below it.
			want := sorted[n-1]
			for _, v := range sorted {
				atOrBelow := sort.Search(n, func(i int) bool { return sorted[i] > v })
				if float64(atOrBelow) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(sorted, q); got != want {
				t.Errorf("n=%d q=%g: got %d, want %d", n, q, got, want)
			}
		}
	}
	if got := percentile([]int32{}, 0.5); got != 0 {
		t.Errorf("empty sample: got %d", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four: got %g", got)
	}
}

// TestOpenLoopChargesStallToLaterRequests drives the open-loop generator with
// a fake clock whose time only moves when read (1 us per read), and a fake
// program that stalls for 10 ms inside the submit of request 3. Requests
// that fell due during the stall were sent late; their latency must run from
// when they were due, not from when the generator recovered.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		tick    = time.Microsecond
		stall   = 10 * time.Millisecond
		service = 5 * time.Microsecond
		gap     = 100 * time.Microsecond
		stallAt = 3
		n       = 20
	)
	now := time.Unix(0, 0)
	clock := func() time.Time { now = now.Add(tick); return now }
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	lag := make([]time.Duration, n)
	lat := make([]time.Duration, n)
	openLoop(clock, due,
		func(i int) (<-chan serve.Response, error) {
			if i == stallAt {
				now = now.Add(stall)
			}
			ch := make(chan serve.Response, 1)
			ch <- serve.Response{Status: serve.StatusServed, DoneAt: now.Add(service)}
			return ch, nil
		},
		func(i int, late time.Duration) { lag[i] = late },
		func(i int, dueAt time.Time, resp serve.Response, err error) { lat[i] = resp.DoneAt.Sub(dueAt) })

	for i := 0; i < stallAt; i++ {
		if lag[i] > 2*tick || lat[i] > service+3*tick {
			t.Errorf("request %d before the stall: lag %v latency %v", i, lag[i], lat[i])
		}
	}
	if lat[stallAt] < stall {
		t.Errorf("the stalled request's latency %v does not include the %v stall", lat[stallAt], stall)
	}
	// Request stallAt+k fell due k gaps into the stall, so it waited the rest.
	for k := 1; k <= 5; k++ {
		i := stallAt + k
		wantAtLeast := stall - time.Duration(k)*gap
		if lag[i] < wantAtLeast {
			t.Errorf("request %d: generator lag %v, want >= %v", i, lag[i], wantAtLeast)
		}
		if lat[i] < wantAtLeast+service {
			t.Errorf("request %d: latency %v was not charged the %v it fell due during the stall", i, lat[i], wantAtLeast)
		}
	}
}

func TestJudgeBoundKinds(t *testing.T) {
	lower := metricDecl{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	sim := metricDecl{Name: "energy_mj_per_inf", Better: "lower", Bound: 0.05}
	ratio := metricDecl{Name: "served_ratio", Better: "higher", Bound: 0.02}
	for _, c := range []struct {
		what       string
		d          metricDecl
		workload   string
		a, b       float64
		sameInputs bool
		kind, want string
	}{
		{"lower-is-better within bound", lower, "router_closed", 10, 10.9, true, "rel", "ok"},
		{"lower-is-better past bound", lower, "router_closed", 10, 11.1, true, "rel", "BREACH"},
		{"lower-is-better improved", lower, "router_closed", 10, 5, true, "rel", "ok"},
		{"higher-is-better within bound", higher, "engine_train", 100, 96, true, "rel", "ok"},
		{"higher-is-better past bound", higher, "engine_train", 100, 94, true, "rel", "BREACH"},
		{"higher-is-better improved", higher, "engine_train", 100, 150, true, "rel", "ok"},
		{"sim metric must repeat exactly", sim, "engine_train", 180.5, 180.5, true, "exact", "ok"},
		{"sim metric moved a hair, better or not", sim, "engine_train", 180.5, 180.4999, true, "exact", "BREACH"},
		{"sim metric on a two-client workload is relative", sim, "router_closed", 180.5, 181, true, "rel", "ok"},
		{"sim metric across seeds is relative", sim, "engine_train", 180.5, 181, false, "rel", "ok"},
		{"absolute bound holds", ratio, "router_open", 1, 0.996, false, "abs", "ok"},
		{"absolute bound breached", ratio, "router_open", 1, 0.99, false, "abs", "BREACH"},
	} {
		v := judge(c.d, c.workload, c.a, c.b, c.sameInputs)
		if v.kind != c.kind || v.status != c.want {
			t.Errorf("%s: kind %s status %s, want %s %s", c.what, v.kind, v.status, c.kind, c.want)
		}
	}
}

func TestCompareSkipsUnresolvedHostMetrics(t *testing.T) {
	man := testManifest(t)
	mk := func(lat float64, unresolved bool) []*result {
		return []*result{{Seed: 1, Seconds: 10, Workloads: map[string]*workloadOut{
			"router_open": {Unresolved: unresolved, EndToEnd: map[string]float64{"lat_p50_us": lat, "served_ratio": 1}},
		}}}
	}
	for _, v := range compareResults(man, mk(90, false), mk(500, true)) {
		switch v.metric {
		case "lat_p50_us":
			if v.status != "unresolved" {
				t.Errorf("host metric of an unresolved run judged %s", v.status)
			}
		case "served_ratio":
			if v.status != "ok" {
				t.Errorf("sim metric of an unresolved run judged %s", v.status)
			}
		}
	}
}

// TestCompareSetsOfRuns: with several runs a side the medians are judged, and
// a baseline whose own spread is wider than the bound resolves nothing unless
// every candidate run beats every baseline run.
func TestCompareSetsOfRuns(t *testing.T) {
	man := testManifest(t)
	runs := func(ops ...float64) []*result {
		var out []*result
		for _, v := range ops {
			out = append(out, &result{Seed: 1, Seconds: 10, Workloads: map[string]*workloadOut{
				"router_closed": {EndToEnd: map[string]float64{"ops_per_s": v}},
			}})
		}
		return out
	}
	steady := runs(100, 101, 99, 100, 102)
	noisy := runs(100, 140, 60, 100, 150)
	for _, c := range []struct {
		what string
		a, b []*result
		want string
	}{
		{"one slow outlier does not move the median", steady, runs(100, 99, 40, 101, 100), "ok"},
		{"the median fell past the bound", steady, runs(70, 71, 69, 70, 100), "BREACH"},
		{"a noisy baseline resolves nothing", noisy, runs(70, 71, 69, 70, 72), "unresolved"},
		{"unless every candidate run beats every baseline run", noisy, runs(160, 170, 165, 161, 180), "ok"},
	} {
		vs := compareResults(man, c.a, c.b)
		if len(vs) != 1 || vs[0].status != c.want {
			t.Errorf("%s: got %+v, want status %s", c.what, vs, c.want)
		}
	}
}
