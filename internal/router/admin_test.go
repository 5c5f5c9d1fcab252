package router

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/policy"
	"autoscale/internal/serve"
)

func adminGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRouterAdmin scrapes a sharded deployment's admin endpoint: /shards must
// document every shard and tenant queue, and /metrics must serve the merged
// per-shard registries plus the router's own series.
func TestRouterAdmin(t *testing.T) {
	gwA := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{})
	gwB := testShard(t, "shard-b", []string{"lane-b"}, 2, serve.Config{})
	rt, err := New([]ShardGateway{{"shard-a", gwA}, {"shard-b", gwB}}, Config{
		Tenants: []Tenant{{"gold", 4}, {"silver", 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck

	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < 8; i++ {
		if r, err := rt.Do(serve.Request{Model: m, Conditions: conds(), Tenant: "gold"}); err != nil || r.Status != serve.StatusServed {
			t.Fatalf("request %d: %v %+v", i, err, r)
		}
	}

	adm, err := serve.ServeAdmin(rt, "127.0.0.1:0", rt.AdminView())
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close() //nolint:errcheck
	base := "http://" + adm.Addr()

	// /shards: per-shard lifecycle rows plus tenant fairness queues.
	code, body := adminGet(t, base+"/shards")
	if code != http.StatusOK {
		t.Fatalf("/shards status %d: %s", code, body)
	}
	var doc struct {
		Shards  []ShardStatus       `json:"shards"`
		Tenants []TenantQueueStatus `json:"tenants"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/shards not JSON: %v\n%s", err, body)
	}
	if len(doc.Shards) != 2 || doc.Shards[0].Name != "shard-a" || doc.Shards[1].Name != "shard-b" {
		t.Fatalf("/shards rows %+v", doc.Shards)
	}
	var servedTotal int64
	for _, s := range doc.Shards {
		if s.State != "healthy" {
			t.Errorf("shard %s state %q, want healthy", s.Name, s.State)
		}
		if len(s.Devices) != 1 {
			t.Errorf("shard %s devices %v, want one lane", s.Name, s.Devices)
		}
		servedTotal += s.Served
	}
	if servedTotal != 8 {
		t.Errorf("/shards served total %d, want 8", servedTotal)
	}
	tenants := map[string]TenantQueueStatus{}
	for _, tq := range doc.Tenants {
		tenants[tq.Tenant] = tq
	}
	if tq, ok := tenants["gold"]; !ok || tq.Weight != 4 || tq.Admitted != 8 {
		t.Errorf("gold tenant row %+v (present=%v)", tenants["gold"], ok)
	}
	if _, ok := tenants[DefaultTenant]; !ok {
		t.Error("/shards missing the default tenant row")
	}

	// /metrics: the merged serving series plus the router's own.
	code, body = adminGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	text := string(body)
	for _, series := range []string{
		"autoscale_requests_submitted_total", // merged shard registries
		"autoscale_router_submitted_total",
		"autoscale_router_dispatched_total",
		"autoscale_router_shards_alive 2",
		`autoscale_router_tenant_weight{tenant="gold"} 4`,
		`autoscale_router_shard_state{shard="shard-a"} 0`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// The standalone surface still answers through the source indirection.
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, _ := adminGet(t, base+"/snapshot.json"); code != http.StatusOK {
		t.Errorf("/snapshot.json status %d", code)
	}
}

// TestAdminShardsNotSharded checks a plain single-gateway admin endpoint
// answers /shards with 404 rather than pretending to be a fleet.
func TestAdminShardsNotSharded(t *testing.T) {
	gw := testShard(t, "", []string{"lane-a"}, 1, serve.Config{})
	defer gw.Shutdown(context.Background()) //nolint:errcheck
	adm, err := serve.ServeAdmin(gw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close() //nolint:errcheck
	if code, _ := adminGet(t, "http://"+adm.Addr()+"/shards"); code != http.StatusNotFound {
		t.Errorf("/shards on a plain gateway: status %d, want 404", code)
	}
}

// TestHealthzFlipsOnSyncFailure pins the control-plane health surface and
// the router's scripted partition hook: a sync_partition window in
// Config.Faults cuts a serving lane off the cross-shard syncer, so /healthz
// reports 503 once serve.HealthzSyncFailThreshold consecutive passes have
// failed (with the last error in the body), and recovers to 200 after the
// fleet's virtual clock leaves the window and one clean pass resets the
// counter.
func TestHealthzFlipsOnSyncFailure(t *testing.T) {
	store, err := policy.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const healS = 0.5 // virtual seconds
	inj := fault.New(&fault.Schedule{Name: "partition", Faults: []fault.Spec{
		{Kind: fault.KindSyncPartition, Device: "lane-a", StartS: 0, EndS: healS},
	}}, exec.NewRoot(1).Child("faults"))
	gw := testShard(t, "shard-a", []string{"lane-a"}, 1, serve.Config{Checkpoints: store})
	rt, err := New([]ShardGateway{{"shard-a", gw}}, Config{
		Checkpoints: store, Faults: inj,
		PolicySync: policy.SyncConfig{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck
	adm, err := serve.ServeAdmin(rt, "127.0.0.1:0", rt.AdminView())
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close() //nolint:errcheck
	base := "http://" + adm.Addr()

	m := dnn.MustByName("MobileNet v3")
	do := func() {
		t.Helper()
		if _, err := rt.Do(serve.Request{Model: m, Conditions: conds()}); err != nil {
			t.Fatal(err)
		}
	}
	do()
	if now := rt.VirtualNow(); now >= healS {
		t.Fatalf("one request took the clock to %gs, past the partition window", now)
	}

	// Healthy before any sync has run; /supervisor stays 404 on an
	// unsupervised router.
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before failures = %d %q", code, body)
	}
	if code, _ := adminGet(t, base+"/supervisor"); code != http.StatusNotFound {
		t.Fatalf("/supervisor on an unsupervised router = %d, want 404", code)
	}

	// Failures below the threshold keep the endpoint green.
	for i := 0; i < serve.HealthzSyncFailThreshold; i++ {
		if i == serve.HealthzSyncFailThreshold-1 {
			if code, _ := adminGet(t, base+"/healthz"); code != http.StatusOK {
				t.Fatalf("/healthz flipped after only %d failures", i)
			}
		}
		rep, err := rt.SyncPolicies()
		if err != nil {
			t.Fatalf("sync pass %d: %v", i, err)
		}
		if !errors.Is(rep.Err(), policy.ErrPartitioned) {
			t.Fatalf("sync pass %d inside the partition window: %v", i, rep.Err())
		}
	}

	code, body := adminGet(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "policy sync failing") {
		t.Fatalf("/healthz after %d failures = %d %q", serve.HealthzSyncFailThreshold, code, body)
	}
	s := rt.Snapshot()
	if s.SyncConsecutiveFailures != serve.HealthzSyncFailThreshold || !strings.Contains(s.SyncLastError, "partitioned") {
		t.Fatalf("snapshot sync health: %d consecutive, last error %q",
			s.SyncConsecutiveFailures, s.SyncLastError)
	}

	// The window closes once the lane's clock passes it: one clean pass
	// resets the counter and the endpoint goes green again.
	for i := 0; rt.VirtualNow() < healS; i++ {
		if i == 1000 {
			t.Fatalf("1000 requests left the clock at %gs", rt.VirtualNow())
		}
		do()
	}
	rep, err := rt.SyncPolicies()
	if err != nil || rep.Err() != nil {
		t.Fatalf("healed sync pass: %v / %v", err, rep.Err())
	}
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after heal = %d %q", code, body)
	}
	if s := rt.Snapshot(); s.SyncConsecutiveFailures != 0 || s.SyncLastError != "" {
		t.Fatalf("snapshot after heal: %d consecutive, last error %q",
			s.SyncConsecutiveFailures, s.SyncLastError)
	}
}
