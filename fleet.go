package autoscale

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"autoscale/internal/policy"
	"autoscale/internal/router"
	"autoscale/internal/serve"
)

// Fleet operationalizes the paper's learning-transfer result (Section VI-C):
// train one donor Q-table on a reference device, then provision warm-started
// engines for a heterogeneous fleet — each engine converges in a fraction of
// the from-scratch runs because the donor's energy-trend knowledge maps onto
// its action space. The zero Fleet has no donor: it provisions cold engines
// that learn from scratch, through the same gateway and router paths.
type Fleet struct {
	mu    sync.Mutex
	donor *Engine
}

// NewFleet trains the donor engine on the named device with the paper's
// protocol (runsPerState epsilon-greedy runs per model and variance state;
// the paper uses 100 — budgets below the ~66-action space size leave the
// table half-explored and transfer poorly).
func NewFleet(donorDevice string, cfg EngineConfig, runsPerState int, seed int64) (*Fleet, error) {
	world, err := NewWorld(donorDevice, seed)
	if err != nil {
		return nil, err
	}
	donor, err := NewTrainedEngine(world, cfg, runsPerState, seed)
	if err != nil {
		return nil, fmt.Errorf("autoscale: fleet donor: %w", err)
	}
	return &Fleet{donor: donor}, nil
}

// FleetFromEngine wraps an already trained engine as the fleet donor.
func FleetFromEngine(donor *Engine) (*Fleet, error) {
	if donor == nil {
		return nil, fmt.Errorf("autoscale: nil donor engine")
	}
	return &Fleet{donor: donor}, nil
}

// Donor returns the fleet's donor engine (nil for the zero Fleet).
func (f *Fleet) Donor() *Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.donor
}

// Provision builds an engine for the named device, warm-started from the
// donor's Q-table (actions map by location/kind/precision and nearest
// relative DVFS position), or cold when the fleet has no donor. The engine
// keeps learning online; call Agent().SetEpsilon(0) once converged to
// exploit greedily.
func (f *Fleet) Provision(device string, cfg EngineConfig, seed int64) (*Engine, error) {
	world, err := NewWorld(device, seed)
	if err != nil {
		return nil, err
	}
	engine, err := NewEngine(world, cfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	donor := f.donor
	f.mu.Unlock()
	if donor == nil {
		return engine, nil
	}
	if err := engine.TransferFrom(donor); err != nil {
		return nil, fmt.Errorf("autoscale: fleet transfer to %s: %w", device, err)
	}
	return engine, nil
}

// ProvisionFromStore builds an engine for the named device, preferring real
// fleet experience from a policy checkpoint store over the donor: the
// device's own latest valid checkpoint first (a restarted device resumes
// where it left off), then the store's merged fleet policy for the engine's
// config hash (a brand-new device inherits the fleet's learning), and only
// when the store has neither — or holds incompatible tables — the classic
// donor transfer of Provision.
func (f *Fleet) ProvisionFromStore(device string, cfg EngineConfig, sink PolicySink, seed int64) (*Engine, error) {
	if sink == nil {
		return f.Provision(device, cfg, seed)
	}
	world, err := NewWorld(device, seed)
	if err != nil {
		return nil, err
	}
	engine, err := NewEngine(world, cfg)
	if err != nil {
		return nil, err
	}
	hash := engine.ConfigHash()
	for _, name := range []string{device, policy.FleetDevice(hash)} {
		ck, err := sink.Latest(name)
		if errors.Is(err, ErrNoPolicyCheckpoint) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("autoscale: fleet provision %s: %w", device, err)
		}
		if ck.ConfigHash != hash {
			continue
		}
		if err := engine.RestoreQTable(ck.Snapshot); err != nil {
			return nil, fmt.Errorf("autoscale: fleet provision %s: %w", device, err)
		}
		return engine, nil
	}
	return f.Provision(device, cfg, seed)
}

// ProvisionGateway warm-starts one engine per named device (each seeded
// seed, seed+1, ...) and wraps them in a serving gateway — the one-call path
// from a trained donor to a fleet accepting traffic. Each name becomes one
// gateway worker, so the list must not repeat a name.
func (f *Fleet) ProvisionGateway(devices []string, cfg EngineConfig, gcfg GatewayConfig, seed int64) (*Gateway, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("autoscale: gateway needs at least one device")
	}
	backends := make([]GatewayBackend, 0, len(devices))
	for i, device := range devices {
		engine, err := f.Provision(device, cfg, seed+int64(i))
		if err != nil {
			return nil, err
		}
		backends = append(backends, GatewayBackend{Device: device, Engine: engine})
	}
	return serve.New(backends, gcfg)
}

// ProvisionRouter stands up the cluster-scale routing tier in one call:
// device lanes are placed over `shards` gateway shards ("shard-0" ... ) by
// the router's consistent-hash/bounded-load placement (rebalanced so every
// shard starts with at least one lane), each lane gets a donor-warm-started
// engine (seeded seed, seed+1, ... in input order), each shard gets a copy
// of gcfg with its Name stamped, and the router is wired with an engine
// factory that rebuilds any lane's engine — same seed — when a dead shard's
// lanes re-home onto survivors. The router inherits gcfg's checkpoint store,
// fault injector and policy-sync settings when rcfg leaves them unset, so
// the cross-shard learning plane and shard-crash drills ride the same
// plumbing the gateways already use; every shard, booted or revived, takes
// rcfg's checkpoint store and fault injector wherever gcfg leaves them
// unset.
//
// Each devices entry is either a hardware name ("Mi8Pro") or a
// "lane=hardware" spec ("Mi8Pro-1=Mi8Pro"), so one physical device model can
// back many serving lanes — how a load test scales a two-model catalog to a
// four-shard fleet.
func (f *Fleet) ProvisionRouter(devices []string, shards int, cfg EngineConfig, gcfg GatewayConfig, rcfg RouterConfig, seed int64) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("autoscale: router needs at least one shard")
	}
	if len(devices) < shards {
		return nil, fmt.Errorf("autoscale: %d devices cannot populate %d shards", len(devices), shards)
	}
	lanes := make([]string, 0, len(devices))
	hw := make(map[string]string, len(devices))
	seeds := make(map[string]int64, len(devices))
	for i, spec := range devices {
		lane, model := spec, spec
		if eq := strings.IndexByte(spec, '='); eq >= 0 {
			lane, model = spec[:eq], spec[eq+1:]
		}
		if lane == "" || model == "" {
			return nil, fmt.Errorf("autoscale: bad device spec %q (want name or lane=hardware)", spec)
		}
		if _, dup := seeds[lane]; dup {
			return nil, fmt.Errorf("autoscale: duplicate device lane %q", lane)
		}
		lanes = append(lanes, lane)
		hw[lane] = model
		seeds[lane] = seed + int64(i)
	}
	shardNames := make([]string, shards)
	for i := range shardNames {
		shardNames[i] = fmt.Sprintf("shard-%d", i)
	}

	homes := router.PlaceDevices(lanes, shardNames)
	rebalanceEmptyShards(homes, shardNames)

	if rcfg.EngineFactory == nil {
		rcfg.EngineFactory = func(lane string) (*Engine, error) {
			s, ok := seeds[lane]
			if !ok {
				return nil, fmt.Errorf("autoscale: unknown device %q", lane)
			}
			return f.Provision(hw[lane], cfg, s)
		}
	}
	if rcfg.Checkpoints == nil {
		rcfg.Checkpoints = gcfg.Checkpoints
	}
	if rcfg.Faults == nil {
		rcfg.Faults = gcfg.Faults
	}
	if reflect.ValueOf(rcfg.PolicySync).IsZero() {
		rcfg.PolicySync = gcfg.PolicySync
	}
	// shard builds one shard's gateway, at boot and, as the ShardFactory,
	// when ReviveShard rebuilds a drained or dead one: each lane gets its
	// original seed back (determinism) and, from a donor fleet, a fresh
	// transfer; then serve.New warm-starts from the checkpoint store, so a
	// revived shard resumes from the fleet's persisted learning.
	shard := func(name string, devs []string) (*Gateway, error) {
		backends := make([]GatewayBackend, 0, len(devs))
		for _, lane := range devs {
			model, ok := hw[lane]
			if !ok {
				return nil, fmt.Errorf("autoscale: unknown device %q", lane)
			}
			engine, err := f.Provision(model, cfg, seeds[lane])
			if err != nil {
				return nil, err
			}
			backends = append(backends, GatewayBackend{Device: lane, Engine: engine})
		}
		shardCfg := gcfg
		shardCfg.Name = name
		if shardCfg.Checkpoints == nil {
			shardCfg.Checkpoints = rcfg.Checkpoints
		}
		if shardCfg.Faults == nil {
			shardCfg.Faults = rcfg.Faults
		}
		return serve.New(backends, shardCfg)
	}
	if rcfg.ShardFactory == nil {
		rcfg.ShardFactory = shard
	}

	byShard := make(map[string][]string, shards)
	for lane, home := range homes {
		byShard[home] = append(byShard[home], lane)
	}
	gateways := make([]RouterShard, 0, shards)
	for _, name := range shardNames {
		devs := byShard[name]
		sort.Strings(devs)
		gw, err := shard(name, devs)
		if err != nil {
			return nil, fmt.Errorf("autoscale: shard %s: %w", name, err)
		}
		gateways = append(gateways, RouterShard{Name: name, Gateway: gw})
	}
	return router.New(gateways, rcfg)
}

// ProvisionPlanner stands up a planned fleet in one call: ProvisionRouter
// builds the sharded tier (with the planner's SLO classes merged into the
// fairness tenants, so class names route without extra configuration), then
// a capacity planner is wired over it. The planner inherits the router's
// fault injector when pcfg leaves it unset, so scheduled load surges inform
// its lookahead. Drive it by calling Planner.MaybeTick with each request's
// virtual arrival time.
func (f *Fleet) ProvisionPlanner(devices []string, shards int, cfg EngineConfig, gcfg GatewayConfig, rcfg RouterConfig, pcfg PlannerConfig, seed int64) (*Planner, error) {
	classes := pcfg.Classes
	if len(classes) == 0 {
		classes = DefaultSLOClasses()
		pcfg.Classes = classes
	}
	have := make(map[string]bool, len(rcfg.Tenants))
	for _, t := range rcfg.Tenants {
		have[t.Name] = true
	}
	for _, t := range SLOTenants(classes) {
		if !have[t.Name] {
			rcfg.Tenants = append(rcfg.Tenants, t)
		}
	}
	rt, err := f.ProvisionRouter(devices, shards, cfg, gcfg, rcfg, seed)
	if err != nil {
		return nil, err
	}
	if pcfg.Faults == nil {
		pcfg.Faults = rcfg.Faults
	}
	p, err := NewPlanner(rt, pcfg)
	if err != nil {
		rt.Shutdown(context.Background())
		return nil, fmt.Errorf("autoscale: planner: %w", err)
	}
	return p, nil
}

// rebalanceEmptyShards patches a placement so no shard starts empty: each
// empty shard (in name order) steals one device from the currently
// most-loaded shard (deterministic tiebreaks), preserving the placement's
// purity as a function of the name sets.
func rebalanceEmptyShards(homes map[string]string, shardNames []string) {
	counts := make(map[string]int, len(shardNames))
	for _, s := range shardNames {
		counts[s] = 0
	}
	for _, s := range homes {
		counts[s]++
	}
	sortedNames := append([]string(nil), shardNames...)
	sort.Strings(sortedNames)
	for _, empty := range sortedNames {
		if counts[empty] > 0 {
			continue
		}
		donor := ""
		for _, s := range sortedNames {
			if donor == "" || counts[s] > counts[donor] {
				donor = s
			}
		}
		if donor == "" || counts[donor] < 2 {
			continue
		}
		// Steal the last (sorted) device homed on the donor.
		victim := ""
		for dev, s := range homes {
			if s == donor && dev > victim {
				victim = dev
			}
		}
		if victim == "" {
			continue
		}
		homes[victim] = empty
		counts[donor]--
		counts[empty]++
	}
}
