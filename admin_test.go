package autoscale

import (
	"context"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// adminDeployment is one way the admin endpoint gets assembled: a source
// plus the views of the tiers attached above it.
type adminDeployment struct {
	name  string
	src   AdminSource
	views []AdminView
	docs  []string // view documents that must answer; the others must 404
}

// adminDeployments stands up the four deployments autoscale-serve can run
// (gateway, router, planned, supervised) plus the one it could not show
// before the views were listed — a planner and a supervisor over one router —
// each traced, with a little arrival-stamped traffic and one control tick
// behind it so every conditional series is live.
func adminDeployments(t *testing.T) []adminDeployment {
	t.Helper()
	w, err := NewWorld(Mi8Pro, 1)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := NewEngine(w, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := FleetFromEngine(donor)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Model("MobileNet v3")
	if err != nil {
		t.Fatal(err)
	}
	cond := Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	lanes := []string{"a=Mi8Pro", "b=Mi8Pro", "c=GalaxyS10e", "d=GalaxyS10e"}
	tracer := func() *Tracer { return NewTracer(TracerConfig{SampleRate: 1, Ring: 64, Seed: 3}) }
	drive := func(do func(Request) (Response, error), tenants ...string) {
		t.Helper()
		for i := 0; i < 12; i++ {
			r, err := do(Request{Model: m, Conditions: cond, Tenant: tenants[i%len(tenants)], ArrivalS: 0.01 * float64(i+1)})
			if err != nil || r.Status != StatusServed {
				t.Fatalf("request %d: %v %+v", i, err, r)
			}
		}
	}
	newRouter := func() *Router {
		rt, err := fl.ProvisionRouter(lanes, 2, DefaultEngineConfig(), GatewayConfig{},
			RouterConfig{Tenants: []RouterTenant{{Name: "gold", Weight: 4}, {Name: "best", Weight: 1}}, Tracer: tracer()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rt.Shutdown(context.Background()) }) //nolint:errcheck
		drive(rt.Do, "gold", "best", "")
		return rt
	}
	newPlanner := func() *Planner {
		pl, err := fl.ProvisionPlanner(lanes, 2, DefaultEngineConfig(), GatewayConfig{},
			RouterConfig{Tracer: tracer()}, PlannerConfig{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pl.Router().Shutdown(context.Background()) }) //nolint:errcheck
		drive(pl.Router().Do, "gold", "silver", "best")
		pl.MaybeTick(1)
		return pl
	}
	newSupervisor := func(rt *Router) *Supervisor {
		sup, err := NewSupervisor(rt, SupervisorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sup.MaybeTick(rt.VirtualNow())
		return sup
	}

	gw, err := fl.ProvisionGateway([]string{Mi8Pro, GalaxyS10e}, DefaultEngineConfig(), GatewayConfig{Tracer: tracer()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Shutdown(context.Background()) }) //nolint:errcheck
	drive(gw.Do, "")

	rt := newRouter()
	pl := newPlanner()
	srt := newRouter()
	sup := newSupervisor(srt)
	both := newPlanner()
	bothSup := newSupervisor(both.Router())
	return []adminDeployment{
		{"gateway", gw, nil, nil},
		{"router", rt, []AdminView{rt.AdminView()}, []string{"/shards"}},
		{"planned", pl.Router(), []AdminView{pl.Router().AdminView(), pl.AdminView()}, []string{"/shards", "/plan"}},
		{"supervised", srt, []AdminView{srt.AdminView(), sup.AdminView()}, []string{"/shards", "/supervisor"}},
		{"planned+supervised", both.Router(), []AdminView{both.Router().AdminView(), both.AdminView(), bothSup.AdminView()},
			[]string{"/shards", "/plan", "/supervisor"}},
	}
}

// seriesNames reduces a /metrics body to its sorted set of sample names with
// label keys, e.g. "autoscale_requests_total{outcome}".
func seriesNames(body string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, keys := line[:strings.IndexByte(line, ' ')], []string(nil)
		if i := strings.IndexByte(name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), `",`) {
				keys = append(keys, kv[:strings.IndexByte(kv, '=')])
			}
			name = name[:i]
		}
		seen[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	return slices.Sorted(maps.Keys(seen))
}

// assertHeadersOnce fails unless every metric in the body renders its HELP
// and its TYPE line exactly once and no sample goes without a header.
func assertHeadersOnce(t *testing.T, body string) {
	t.Helper()
	help, typ := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			typ[strings.Fields(line)[2]]++
		}
	}
	for name, n := range help {
		if n != 1 || typ[name] != 1 {
			t.Errorf("metric %s: %d HELP / %d TYPE lines, want exactly 1 each", name, n, typ[name])
		}
	}
	for _, series := range seriesNames(body) {
		name := series[:strings.IndexByte(series, '{')]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && help[base] > 0 {
				name = base
				break
			}
		}
		if help[name] == 0 || typ[name] == 0 {
			t.Errorf("series %s sampled without a HELP/TYPE header", series)
		}
	}
}

// TestAdminComposition scrapes one admin server per deployment. Each must
// serve exactly the listed views' documents (404 for the rest), /traces, and
// a single /metrics body with every HELP/TYPE header exactly once whose
// series — names and label keys — are the ones committed in
// testdata/admin_metric_names.txt, recorded before /metrics became a single
// pass over source, views and tracer: nothing lost, nothing renamed. The
// planner-and-supervisor deployment has no recorded list; it must emit the
// union of the planned and the supervised ones.
func TestAdminComposition(t *testing.T) {
	golden, err := os.ReadFile("testdata/admin_metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		f := strings.Fields(line)
		want[f[0]] = append(want[f[0]], f[1])
	}
	union := append(append([]string(nil), want["planned"]...), want["supervised"]...)
	sort.Strings(union)
	want["planned+supervised"] = slices.Compact(union)

	for _, d := range adminDeployments(t) {
		t.Run(d.name, func(t *testing.T) {
			adm, err := ServeAdmin(d.src, "127.0.0.1:0", d.views...)
			if err != nil {
				t.Fatal(err)
			}
			defer adm.Close() //nolint:errcheck
			get := func(path string) (int, string) {
				resp, err := http.Get("http://" + adm.Addr() + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close() //nolint:errcheck
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(body)
			}

			for _, path := range []string{"/shards", "/plan", "/supervisor"} {
				wantCode := http.StatusNotFound
				if slices.Contains(d.docs, path) {
					wantCode = http.StatusOK
				}
				if code, body := get(path); code != wantCode {
					t.Errorf("%s = %d, want %d", path, code, wantCode)
				} else if code == http.StatusOK && !strings.HasPrefix(body, "{") {
					t.Errorf("%s is not a JSON document: %.60s", path, body)
				}
			}
			if code, body := get("/traces"); code != http.StatusOK || !strings.Contains(body, `"traces"`) {
				t.Errorf("/traces = %d %.60s", code, body)
			}

			code, body := get("/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics = %d", code)
			}
			assertHeadersOnce(t, body)
			got := seriesNames(body)
			if strings.Join(got, "\n") != strings.Join(want[d.name], "\n") {
				t.Errorf("series set differs from the recorded one\n got: %s\nwant: %s", got, want[d.name])
			}
		})
	}
}
