package router_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/policy"
	"autoscale/internal/router"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
	"autoscale/internal/super"
)

// An external test package: the supervisor imports the router.

// drillStorm drives one supervised three-shard fleet through a shard_crash
// drill and the revive that follows, one sequential client, a supervisor tick
// after every request — the driving discipline of the chaos soak and the
// fleet_chaos benchmark — and returns a digest of every response and the
// final shard states, plus the supervisor's action log.
func drillStorm(t *testing.T, seed int64) (digest, actions string) {
	t.Helper()
	store, err := policy.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(&fault.Schedule{Name: "drill-replay", Faults: []fault.Spec{
		{Kind: fault.KindShardCrash, Shard: "shard-b", StartS: 1.0},
	}}, exec.NewRoot(seed).Child("faults"))

	shards := []string{"shard-a", "shard-b", "shard-c"}
	lanes := []string{"lane-a0", "lane-a1", "lane-b0", "lane-b1", "lane-c0", "lane-c1"}
	mkEngine := func(lane string) (*core.Engine, error) {
		for i, l := range lanes {
			if l == lane {
				cfg := core.DefaultConfig()
				cfg.Seed = seed + int64(i)
				return core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seed+int64(i)), cfg)
			}
		}
		return nil, fmt.Errorf("unknown lane %q", lane)
	}
	noSleep := policy.SyncConfig{Sleep: func(time.Duration) {}}
	mkShard := func(name string, devices []string) (*serve.Gateway, error) {
		var backends []serve.Backend
		for _, lane := range devices {
			e, err := mkEngine(lane)
			if err != nil {
				return nil, err
			}
			backends = append(backends, serve.Backend{Device: lane, Engine: e})
		}
		return serve.New(backends, serve.Config{Name: name, Checkpoints: store, Faults: inj, PolicySync: noSleep})
	}
	var gws []router.ShardGateway
	for i, name := range shards {
		gw, err := mkShard(name, lanes[2*i:2*i+2])
		if err != nil {
			t.Fatal(err)
		}
		gws = append(gws, router.ShardGateway{Name: name, Gateway: gw})
	}
	rt, err := router.New(gws, router.Config{
		Tenants:     []router.Tenant{{Name: "gold", Weight: 4}, {Name: "silver", Weight: 2}, {Name: "best", Weight: 1}},
		Checkpoints: store, Faults: inj, PolicySync: noSleep,
		EngineFactory: mkEngine, ShardFactory: mkShard,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An interval shorter than one request's service time: the supervisor
	// ticks after nearly every request, so the tick next to the kill sees it.
	sup, err := super.New(rt, super.Config{IntervalS: 0.004, LatencyTargetS: 0.1, RestartBackoffS: 0.5, MaxRestarts: 3})
	if err != nil {
		t.Fatal(err)
	}

	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	tenants := []string{"gold", "silver", "best"}
	h := fnv.New64a()
	for i := 0; i < 800; i++ {
		req := serve.Request{Model: m, Conditions: c, Tenant: tenants[i%len(tenants)]}
		if i%4 == 3 {
			req.Device = lanes[(i/4)%len(lanes)]
		}
		r, _ := rt.Do(req)
		sup.MaybeTick(rt.VirtualNow())
		fmt.Fprintf(h, "%d|%s|%x;", r.Status, r.Device, math.Float64bits(r.Decision.Measurement.LatencyS))
		if i%150 == 149 {
			if _, err := rt.SyncPolicies(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if kills := rt.RouterMetrics().ShardKills; kills != 1 {
		t.Fatalf("storm fired %d shard kills, want the one drill", kills)
	}
	for _, sig := range rt.ShardSignals() {
		fmt.Fprintf(h, "S:%s=%s/%d@%x;", sig.Name, sig.State, sig.Incarnation, math.Float64bits(sig.VirtualS))
	}
	for _, a := range sup.Status().Actions {
		actions += fmt.Sprintf("%x %s %s %s\n", math.Float64bits(a.AtS), a.Shard, a.Action, a.Detail)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum64()), actions
}

// TestDrillReplayDeterministic replays one storm twenty times. The scripted
// kill fires on the submitter's goroutine at the head of a submission, so
// nothing of it can overlap the driver's clock read and supervisor tick
// between requests: every replay must produce the same responses, the same
// final fleet and the same remediation log, to the bit. (When drills fired
// from the dispatcher goroutine after a completion, the kill raced that tick,
// and the fleet_chaos benchmark read two different energies at one seed.)
func TestDrillReplayDeterministic(t *testing.T) {
	const seed = 11
	digest, actions := drillStorm(t, seed)
	if actions == "" {
		t.Fatal("the supervisor took no action: the storm exercises nothing")
	}
	for i := 1; i < 20; i++ {
		d, a := drillStorm(t, seed)
		if d != digest {
			t.Fatalf("replay %d digest %s, first run %s", i, d, digest)
		}
		if a != actions {
			t.Fatalf("replay %d supervisor log:\n%s\nfirst run:\n%s", i, a, actions)
		}
	}
	if d, _ := drillStorm(t, seed+1); d == digest {
		t.Error("a different seed produced the same storm")
	}
}
