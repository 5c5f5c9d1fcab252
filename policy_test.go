package autoscale

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// edgeBackends builds n same-configuration workers ("edge-0" ...), each its
// own engine on a Mi8Pro world so their tables are compatible (one config
// hash) but their experience differs (different seeds).
func edgeBackends(t testing.TB, n int, seed int64) []GatewayBackend {
	t.Helper()
	backends := make([]GatewayBackend, 0, n)
	for i := 0; i < n; i++ {
		world, err := NewWorld(Mi8Pro, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(world, DefaultEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, GatewayBackend{Device: deviceName(i), Engine: engine})
	}
	return backends
}

func deviceName(i int) string { return "edge-" + string(rune('0'+i)) }

func floodGateway(t testing.TB, gw *Gateway, n int) {
	t.Helper()
	m, err := Model("MobileNet v3")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvironment(EnvS1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		req := Request{Model: m, Conditions: env.Sample(), Device: deviceName(i % 3)}
		if _, err := gw.Do(req); err != nil {
			t.Fatal(err)
		}
	}
}

func shutdown(t testing.TB, gw *Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyPlaneEndToEnd is the acceptance path for the policy plane: a
// three-device fleet learns under load, a sync pass checkpoints every worker
// and publishes a merged fleet policy, a restarted fleet resumes from the
// latest generations, and a corrupted latest checkpoint falls back to the
// previous one without taking the gateway down.
func TestPolicyPlaneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenPolicyStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Generation 1: learn under load, sync, shut down (which flushes gen 2).
	gw, err := NewGateway(edgeBackends(t, 3, 1), GatewayConfig{Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	floodGateway(t, gw, 60)
	rep, err := gw.SyncPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rep.Checkpointed)
	if len(rep.Checkpointed) != 3 {
		t.Fatalf("sync checkpointed %v, want all three workers", rep.Checkpointed)
	}
	if rep.MergedGroups != 1 {
		t.Fatalf("merged groups = %d, want 1 (same config hash)", rep.MergedGroups)
	}
	shutdown(t, gw)

	devices, err := store.Devices()
	if err != nil {
		t.Fatal(err)
	}
	// Three workers plus the merged _fleet-<hash> policy.
	if len(devices) != 4 {
		t.Fatalf("store devices: %v", devices)
	}
	for i := 0; i < 3; i++ {
		if g := store.LatestGeneration(deviceName(i)); g != 2 {
			t.Fatalf("%s at generation %d after sync+shutdown, want 2", deviceName(i), g)
		}
	}

	// Restart: every worker resumes from its own latest checkpoint.
	gw, err = NewGateway(edgeBackends(t, 3, 100), GatewayConfig{Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	warm := gw.WarmStarts()
	if len(warm) != 3 {
		t.Fatalf("warm starts: %v, want all three workers", warm)
	}
	for dev, gen := range warm {
		if gen != 2 {
			t.Fatalf("%s warm-started from generation %d, want 2", dev, gen)
		}
	}
	floodGateway(t, gw, 30)
	shutdown(t, gw)
	if g := store.LatestGeneration(deviceName(0)); g != 3 {
		t.Fatalf("restarted fleet flushed generation %d, want 3", g)
	}

	// Corrupt edge-0's newest checkpoint on disk. The next boot must fall
	// back to the previous valid generation — no crash, no garbage table.
	files, err := filepath.Glob(filepath.Join(dir, "edge-0", "gen-*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files on disk: %v %v", files, err)
	}
	sort.Strings(files)
	newest := files[len(files)-1]
	if err := os.WriteFile(newest, []byte("torn write: not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	gw, err = NewGateway(edgeBackends(t, 3, 200), GatewayConfig{Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	warm = gw.WarmStarts()
	if warm["edge-0"] != 2 {
		t.Fatalf("after corrupting gen 3, edge-0 warm-started from %d, want 2", warm["edge-0"])
	}
	if warm["edge-1"] != 3 {
		t.Fatalf("undamaged edge-1 warm-started from %d, want 3", warm["edge-1"])
	}
	floodGateway(t, gw, 30)
	shutdown(t, gw)
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
}

// TestFleetProvisionFromStore: ProvisionFromStore prefers the device's own
// checkpoint, then the merged fleet policy, then the donor.
func TestFleetProvisionFromStore(t *testing.T) {
	store, err := OpenPolicyStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(Mi8Pro, DefaultEngineConfig(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Empty store: falls back to donor transfer (engine has donor's rows).
	engine, err := fleet.ProvisionFromStore(Mi8Pro, DefaultEngineConfig(), store, 7)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Agent().NumStates() == 0 {
		t.Fatal("donor fallback left a cold engine")
	}

	// Persist the donor's own experience as this device's checkpoint; a
	// re-provisioned engine must resume from it (same table, same visits).
	ck, err := NewPolicyCheckpoint(fleet.Donor(), Mi8Pro)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := store.SaveNext(ck)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	resumed, err := fleet.ProvisionFromStore(Mi8Pro, DefaultEngineConfig(), store, 8)
	if err != nil {
		t.Fatal(err)
	}
	donorVisits := fleet.Donor().Agent().TotalVisits()
	if got := resumed.Agent().TotalVisits(); got != donorVisits {
		t.Fatalf("resumed engine has %d visits, checkpoint carried %d", got, donorVisits)
	}

	// nil sink degrades to plain Provision.
	if _, err := fleet.ProvisionFromStore(Mi8Pro, DefaultEngineConfig(), nil, 9); err != nil {
		t.Fatal(err)
	}
}

// TestProvisionRouterInheritsPolicySync: a router provisioned from a fleet
// runs its cross-shard syncer on gcfg.PolicySync when rcfg sets none, so
// -sync reaches a routed fleet as it reaches a single gateway. Under the
// uninherited 30 s default no tick below would run a pass.
func TestProvisionRouterInheritsPolicySync(t *testing.T) {
	// A donor with a handful of rows keeps each sync pass cheap, even
	// under the race detector.
	cfg := DefaultEngineConfig()
	donor := edgeBackends(t, 1, 1)[0].Engine
	m, _ := Model("MobileNet v1")
	env, _ := NewEnvironment(EnvS1, 1)
	for i := 0; i < 10; i++ {
		if _, err := donor.RunInferenceCtx(nil, m, env.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	fleet, err := FleetFromEngine(donor)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := GatewayConfig{Checkpoints: memSink{}}
	gcfg.PolicySync.Interval = time.Second
	rt, err := fleet.ProvisionRouter([]string{Mi8Pro, GalaxyS10e}, 2, cfg, gcfg, RouterConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background()) //nolint:errcheck
	for _, tick := range []struct {
		now  float64
		pass bool
	}{{0.5, false}, {1, true}, {1.5, false}, {2, true}} {
		if ran := rt.MaybeSyncPolicies(tick.now); ran != tick.pass {
			t.Fatalf("MaybeSyncPolicies(%v) ran = %v, want %v", tick.now, ran, tick.pass)
		}
	}
	if n := rt.Snapshot().SyncPasses; n != 2 {
		t.Fatalf("%d sync passes, want 2", n)
	}
}

// memSink is a checkpoint sink that keeps nothing: every save succeeds and
// no device has a checkpoint, so a sync pass costs no disk I/O.
type memSink struct{}

func (memSink) SaveNext(*PolicyCheckpoint) (uint64, error) { return 1, nil }
func (memSink) Latest(string) (*PolicyCheckpoint, error)   { return nil, ErrNoPolicyCheckpoint }
