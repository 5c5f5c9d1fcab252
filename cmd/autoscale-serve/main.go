// Command autoscale-serve load-tests the fleet-serving gateway: it
// provisions one engine per device (optionally warm-started from a trained
// donor), floods them with inference requests from concurrent clients —
// closed-loop or Poisson open-loop — and prints the gateway's metrics
// snapshot: served/shed/expired counts, latency and energy distributions,
// queue high watermark and the decision breakdown.
//
// Usage:
//
//	autoscale-serve -devices Mi8Pro,GalaxyS10e -clients 16 -n 2000
//	autoscale-serve -devices MotoXForce -rate 200 -deadline 50ms -shed oldest
//	autoscale-serve -donor Mi8Pro -train 60 -devices GalaxyS10e,MotoXForce
//	autoscale-serve -faults examples/faults/storm.json -resilient -hedge
//	autoscale-serve -admin :9090 -linger 30s   # scrape /metrics while it runs
//	autoscale-serve -shards 4 -replicas 4 -tenants gold:4,silver:2,best:1
//	autoscale-serve -shards 2 -replicas 4 -plan -slo-classes "gold:250ms:4,best:1s:1:100ms"
//	autoscale-serve -chaos -chaos-intensity 0.9 -shards 3 -replicas 2 -admin :9090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoscale"
)

func main() {
	var (
		devices   = flag.String("devices", "Mi8Pro,GalaxyS10e", "comma-separated device fleet")
		donor     = flag.String("donor", "", "warm-start every engine from a donor trained on this device")
		train     = flag.Int("train", 40, "donor training runs per (model, variance state); used with -donor")
		model     = flag.String("model", "MobileNet v3", "model to serve")
		envID     = flag.String("env", autoscale.EnvD2, "environment: S1-S5, D1-D4")
		n         = flag.Int("n", 1000, "total requests")
		clients   = flag.Int("clients", 16, "concurrent clients")
		rate      = flag.Float64("rate", 0, "per-client Poisson request rate per second (0 = closed loop)")
		queue     = flag.Int("queue", 0, "per-device queue depth (0 = gateway default)")
		deadline  = flag.Duration("deadline", 0, "per-request deadline (0 = none)")
		shed      = flag.String("shed", "newest", "shed policy on full queue: newest, oldest")
		failover  = flag.Bool("failover", false, "re-execute QoS misses on the local fallback target")
		snapdir   = flag.String("snapshots", "", "policy checkpoint store directory: warm-start at boot, flush at shutdown")
		sync      = flag.Duration("sync", 0, "policy sync interval in virtual time (0 = off; needs -snapshots)")
		faults    = flag.String("faults", "", "JSON fault schedule to inject (see examples/faults/)")
		chaos     = flag.Bool("chaos", false, "seeded chaos storm over the routing tier: generated faults, self-healing supervisor, invariant audit")
		chaosInt  = flag.Float64("chaos-intensity", 0.7, "chaos storm intensity in (0,1]: scales fault density, severity and window width")
		resilient = flag.Bool("resilient", false, "enable circuit breakers and deadline-budgeted offload retries")
		hedge     = flag.Bool("hedge", false, "hedge slow offloads with a local run (needs -resilient)")
		admin     = flag.String("admin", "", "serve the observability endpoint on this address (e.g. :9090)")
		linger    = flag.Duration("linger", 0, "keep the admin endpoint up this long after the load finishes")
		shards    = flag.Int("shards", 1, "gateway shards behind the routing tier (1 = single gateway, no router)")
		replicas  = flag.Int("replicas", 1, "serving lanes per device (lane names device-0, device-1, ...)")
		tenants   = flag.String("tenants", "", "weighted fairness classes, e.g. gold:4,silver:2,best:1 (implies the routing tier)")
		plan      = flag.Bool("plan", false, "run the model-driven capacity planner over the routing tier")
		sloSpec   = flag.String("slo-classes", "", `SLO classes for -plan, "name:target[:weight[:maxqueue]],..." (default gold/silver/best)`)
		traceRate = flag.Float64("trace-sample", 0, "causal-trace head-sampling rate in [0,1]; sheds/misses/failovers are always kept (0 = tracing off)")
		flightDir = flag.String("flight-recorder", "", "incident flight-recorder directory: control-plane events + kept traces bundled on supervisor remediation (needs -trace-sample)")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := run(config{
		devices: strings.Split(*devices, ","), donor: *donor, train: *train,
		model: *model, envID: *envID, n: *n, clients: *clients, rate: *rate,
		queue: *queue, deadline: *deadline, shed: *shed, failover: *failover,
		snapdir: *snapdir, sync: *sync, faults: *faults, chaos: *chaos,
		chaosIntensity: *chaosInt, resilient: *resilient,
		hedge: *hedge, admin: *admin, linger: *linger, shards: *shards,
		replicas: *replicas, tenants: *tenants, plan: *plan, sloClasses: *sloSpec,
		traceSample: *traceRate, flightDir: *flightDir,
		seed: *seed,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autoscale-serve:", err)
		os.Exit(1)
	}
}

type config struct {
	devices        []string
	donor          string
	train          int
	model, envID   string
	n, clients     int
	rate           float64
	queue          int
	deadline       time.Duration
	shed           string
	failover       bool
	snapdir        string
	sync           time.Duration
	faults         string
	chaos          bool
	chaosIntensity float64
	resilient      bool
	hedge          bool
	admin          string
	linger         time.Duration
	shards         int
	replicas       int
	tenants        string
	plan           bool
	sloClasses     string
	traceSample    float64
	flightDir      string
	seed           int64
}

// chaosHorizonS is the virtual span the generated storm fits inside — small
// enough that a default-sized load drives every lane's clock past it, so the
// fleet gets storm-free time to settle before the final audit.
const chaosHorizonS = 6.0

// chaosRig bundles the chaos-mode control plane the flood loop drives: the
// supervisor ticking on virtual time, the invariant auditor, and the atomic
// clock the checkpoint fault sink reads (it must never query the router
// directly — see PolicyFaultSink.Now).
type chaosRig struct {
	rt    *autoscale.Router
	sup   *autoscale.Supervisor
	aud   *autoscale.ChaosAuditor
	clock atomic.Uint64 // float64 bits of the newest virtual time seen
}

// observe advances the rig after one response: bump the atomic clock to the
// router's virtual now, run a supervision pass if the interval elapsed, and
// audit clock monotonicity on every pass.
func (cr *chaosRig) observe() {
	now := cr.rt.VirtualNow()
	for {
		old := cr.clock.Load()
		if math.Float64frombits(old) >= now || cr.clock.CompareAndSwap(old, math.Float64bits(now)) {
			break
		}
	}
	if cr.sup.MaybeTick(now) {
		cr.aud.Observe()
	}
}

// now is the checkpoint fault sink's clock.
func (cr *chaosRig) now() float64 { return math.Float64frombits(cr.clock.Load()) }

// printChaos reports the supervision outcome and the invariant audit; any
// violation makes the whole run fail.
func printChaos(out *os.File, rig *chaosRig) error {
	rig.aud.Final()
	st := rig.sup.Status()
	fmt.Fprintf(out, "\nsupervisor (%d passes):\n", st.Ticks)
	for _, sh := range st.Shards {
		line := fmt.Sprintf("  %-10s phase %-8s score %.2f  restarts %d  incarnation %d",
			sh.Name, sh.Phase, sh.Score, sh.Restarts, sh.Incarnation)
		if sh.Reason != "" {
			line += "  (" + sh.Reason + ")"
		}
		fmt.Fprintln(out, line)
	}
	if len(st.Actions) > 0 {
		fmt.Fprintf(out, "remediation log:\n")
		for _, a := range st.Actions {
			fmt.Fprintf(out, "  [%7.2fs] %-10s %-8s %s\n", a.AtS, a.Shard, a.Action, a.Detail)
		}
	}
	viols := rig.aud.Violations()
	if len(viols) > 0 {
		for _, v := range viols {
			fmt.Fprintf(out, "INVARIANT VIOLATION: %s\n", v)
		}
		return fmt.Errorf("chaos audit failed: %d invariant violations", len(viols))
	}
	fmt.Fprintf(out, "chaos audit: all invariants held\n")
	return nil
}

// server is the front door the load generator drives: a single gateway or
// the sharded routing tier.
type server interface {
	Submit(autoscale.Request) (<-chan autoscale.Response, error)
	Do(autoscale.Request) (autoscale.Response, error)
	Devices() []string
	Snapshot() autoscale.GatewayMetrics
	Health() map[string]autoscale.EngineHealth
	Closed() bool
	Tracer() *autoscale.Tracer
	VirtualNow() float64
	MaybeSyncPolicies(now float64) bool
	Shutdown(context.Context) error
}

func run(c config, out *os.File) error {
	if c.clients < 1 {
		return fmt.Errorf("need at least one client, got %d", c.clients)
	}
	gcfg := autoscale.GatewayConfig{QueueDepth: c.queue, FailoverLocal: c.failover}
	switch c.shed {
	case "newest":
		gcfg.Shed = autoscale.ShedNewest
	case "oldest":
		gcfg.Shed = autoscale.ShedOldest
	default:
		return fmt.Errorf("unknown shed policy %q (newest, oldest)", c.shed)
	}
	var store *autoscale.PolicyStore
	if c.snapdir != "" {
		var err error
		store, err = autoscale.OpenPolicyStore(c.snapdir, 0)
		if err != nil {
			return err
		}
		gcfg.Checkpoints = store
		gcfg.PolicySync.Interval = c.sync
	} else if c.sync > 0 {
		return fmt.Errorf("-sync needs -snapshots (the checkpoint store)")
	}
	if c.hedge && !c.resilient {
		return fmt.Errorf("-hedge needs -resilient (the retry/breaker path)")
	}
	if c.resilient {
		gcfg.Resilience = autoscale.ResilienceConfig{Enabled: true, Hedge: c.hedge}
	}
	if c.faults != "" {
		sched, err := autoscale.LoadFaultSchedule(c.faults)
		if err != nil {
			return err
		}
		gcfg.Faults = autoscale.CompileFaultSchedule(sched, c.seed)
	}

	m, err := autoscale.Model(c.model)
	if err != nil {
		return err
	}

	tenantCfg, tenantNames, err := parseTenants(c.tenants)
	if err != nil {
		return err
	}
	var classes []autoscale.SLOClass
	if c.sloClasses != "" && !c.plan {
		return fmt.Errorf("-slo-classes needs -plan (the capacity planner)")
	}
	if c.plan {
		if c.tenants != "" {
			return fmt.Errorf("-plan derives its tenants from -slo-classes; drop -tenants")
		}
		classes = autoscale.DefaultSLOClasses()
		if c.sloClasses != "" {
			if classes, err = autoscale.ParseSLOClasses(c.sloClasses); err != nil {
				return err
			}
		}
		tenantCfg = autoscale.SLOTenants(classes)
		for _, cl := range classes {
			tenantNames = append(tenantNames, cl.Name)
		}
	}
	// Zero means the single-gateway defaults (tests build config directly).
	if c.shards == 0 {
		c.shards = 1
	}
	if c.replicas == 0 {
		c.replicas = 1
	}
	if c.shards < 1 {
		return fmt.Errorf("need at least one shard, got %d", c.shards)
	}
	if c.replicas < 1 {
		return fmt.Errorf("need at least one replica, got %d", c.replicas)
	}
	routed := c.shards > 1 || len(tenantCfg) > 0
	if c.replicas > 1 && !routed {
		return fmt.Errorf("-replicas lays lanes over the routing tier; set -shards >= 2, -tenants or -plan")
	}

	// Causal tracing: a tracer exists when head sampling is requested or a
	// flight-recorder directory is given (tail-kept traces and control-plane
	// events are worth recording even at sample rate 0).
	var tracer *autoscale.Tracer
	var recorder *autoscale.FlightRecorder
	if c.traceSample < 0 || c.traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", c.traceSample)
	}
	if c.traceSample > 0 || c.flightDir != "" {
		tracer = autoscale.NewTracer(autoscale.TracerConfig{SampleRate: c.traceSample, Seed: c.seed})
		recorder = autoscale.NewFlightRecorder(tracer, c.flightDir, 0, 0)
	}

	var sched *autoscale.FaultSchedule
	var fsink *autoscale.PolicyFaultSink
	if c.chaos {
		if c.faults != "" {
			return fmt.Errorf("-chaos generates its own storm; drop -faults")
		}
		if c.plan {
			return fmt.Errorf("-chaos and -plan are separate control loops; pick one")
		}
		if c.chaosIntensity <= 0 || c.chaosIntensity > 1 {
			return fmt.Errorf("-chaos-intensity must be in (0,1], got %g", c.chaosIntensity)
		}
		if !routed {
			return fmt.Errorf("-chaos supervises the routing tier; set -shards >= 2 or -tenants")
		}
		_, lanes := laneSpecs(c.devices, c.replicas)
		shardNames := make([]string, c.shards)
		for i := range shardNames {
			shardNames[i] = fmt.Sprintf("shard-%d", i)
		}
		sched = autoscale.RandomFaultSchedule(c.seed, c.chaosIntensity, autoscale.FaultRandomOpts{
			Devices: lanes, Shards: shardNames, HorizonS: chaosHorizonS,
		})
		gcfg.Faults = autoscale.CompileFaultSchedule(sched, c.seed)
		if store != nil {
			// The storm's checkpoint I/O faults need the saves to flow
			// through a fault sink; the raw store stays in scope for the
			// auditor's CRC sweep. Now/Verdict are wired once the rig (and
			// its router-free clock) exists.
			fsink = &autoscale.PolicyFaultSink{Inner: store}
			gcfg.Checkpoints = fsink
		}
	}

	// One provisioning path: a donor fleet, or the zero Fleet, whose cold
	// engines learn online under the load itself.
	fleet := &autoscale.Fleet{}
	ecfg := autoscale.DefaultEngineConfig()
	if c.donor != "" {
		if fleet, err = autoscale.NewFleet(c.donor, ecfg, c.train, c.seed); err != nil {
			return err
		}
	}
	var srv server
	var rt *autoscale.Router
	var pl *autoscale.Planner
	if routed {
		// The router starts traces at admission; shard gateways must not
		// also carry a tracer, or requests would double-start.
		specs, _ := laneSpecs(c.devices, c.replicas)
		rcfg := autoscale.RouterConfig{Tenants: tenantCfg, Shed: gcfg.Shed, Tracer: tracer, Recorder: recorder}
		if rt, err = fleet.ProvisionRouter(specs, c.shards, ecfg, gcfg, rcfg, c.seed); err != nil {
			return err
		}
		srv = rt
	} else {
		gcfg.Tracer = tracer
		gcfg.Recorder = recorder
		if srv, err = fleet.ProvisionGateway(c.devices, ecfg, gcfg, c.seed); err != nil {
			return err
		}
	}
	if c.plan {
		pl, err = autoscale.NewPlanner(rt, autoscale.PlannerConfig{Classes: classes, Faults: gcfg.Faults})
		if err != nil {
			return err
		}
	}
	var rig *chaosRig
	if c.chaos {
		sup, err := autoscale.NewSupervisor(rt, autoscale.SupervisorConfig{})
		if err != nil {
			return err
		}
		aud, err := autoscale.NewChaosAuditor(rt, store)
		if err != nil {
			return err
		}
		rig = &chaosRig{rt: rt, sup: sup, aud: aud}
		if fsink != nil {
			// Injected checkpoint-I/O verdicts join the flight ring when a
			// recorder is configured; Note on a nil recorder is a no-op.
			fsink.Events = recorder.Note
			inj := gcfg.Faults
			// The sink's clock must not call back into the router: its
			// queries can fire under the router's lock (re-homing warm
			// starts, drain flushes), so it reads the atomic the flood loop
			// advances instead.
			fsink.Now = rig.now
			fsink.Verdict = func(dev string, tm float64) autoscale.PolicyIOVerdict {
				switch inj.CheckpointIO(dev, tm) {
				case autoscale.FaultIOSlowFsync:
					return autoscale.PolicyIOSlow
				case autoscale.FaultIOWriteFail:
					return autoscale.PolicyIOFailWrite
				case autoscale.FaultIODiskFull:
					return autoscale.PolicyIOFailAll
				}
				return autoscale.PolicyIOHealthy
			}
		}
	}
	if c.admin != "" {
		var views []autoscale.AdminView
		if rt != nil {
			views = append(views, rt.AdminView())
		}
		if pl != nil {
			views = append(views, pl.AdminView())
		}
		if rig != nil {
			views = append(views, rig.sup.AdminView())
		}
		adm, err := autoscale.ServeAdmin(srv, c.admin, views...)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "admin listening on http://%s\n", adm.Addr())
	} else if c.linger > 0 {
		return fmt.Errorf("-linger needs -admin (the observability endpoint)")
	}

	mode := "closed-loop"
	if c.rate > 0 {
		mode = fmt.Sprintf("Poisson %.0f req/s per client", c.rate)
	}
	front := ""
	if rt != nil {
		front = fmt.Sprintf(" over %d shards", c.shards)
		if len(tenantNames) > 0 {
			front += fmt.Sprintf(", tenants %s", strings.Join(tenantNames, "/"))
		}
		if pl != nil {
			front += ", planned capacity"
		}
	}
	fmt.Fprintf(out, "serving %q in %s on %s%s — %d requests, %d clients, %s\n",
		m.Name, c.envID, strings.Join(srv.Devices(), "+"), front, c.n, c.clients, mode)
	if c.donor != "" {
		fmt.Fprintf(out, "engines warm-started from a %s donor trained %d runs per (model, variance state)\n",
			c.donor, c.train)
	}
	if gcfg.Faults != nil {
		resil := "resilience off"
		if c.resilient {
			resil = "breakers+retries on"
			if c.hedge {
				resil += ", hedging"
			}
		}
		fmt.Fprintf(out, "injecting fault schedule %q (%s)\n", gcfg.Faults.Name(), resil)
	}
	if rig != nil {
		fmt.Fprintf(out, "chaos storm: %d faults, intensity %.2f, horizon %.0fs — supervised, invariants audited\n",
			len(sched.Faults), c.chaosIntensity, chaosHorizonS)
	}
	if tracer != nil {
		line := fmt.Sprintf("causal tracing: sample rate %.2f, tail-keep on shed/miss/failover/hedge", c.traceSample)
		if c.flightDir != "" {
			line += fmt.Sprintf("; flight recorder bundles -> %s", c.flightDir)
		}
		fmt.Fprintln(out, line)
	}

	start := time.Now()
	if err := flood(srv, m, c, tenantNames, pl, gcfg.Faults, rig); err != nil {
		return err
	}
	if c.linger > 0 {
		// Keep the server (and /healthz=200) up for scrapers before the
		// shutdown flips the probe and freezes the counters.
		fmt.Fprintf(out, "load done; lingering %s for scrapes\n", c.linger)
		time.Sleep(c.linger)
	}
	if rig != nil {
		rig.observe() // one last pass before the drain freezes the clocks
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Under chaos the final flush may land inside an injected I/O
		// window; the prior generations survive in the raw store, so report
		// the scripted damage and keep auditing.
		if rig == nil || !errors.Is(err, autoscale.ErrPolicyInjectedIO) {
			return err
		}
		fmt.Fprintf(out, "shutdown flush hit injected checkpoint faults (prior generations survive): %v\n", err)
	}
	snap := srv.Snapshot()
	printSnapshot(out, snap, time.Since(start))
	if c.sync > 0 {
		fmt.Fprintf(out, "\npolicy sync: %d passes (%d failed), every %s of virtual time\n",
			snap.SyncPasses, snap.SyncFailures, c.sync)
	}
	if rt != nil {
		printRouter(out, rt)
	}
	if pl != nil {
		printPlan(out, pl)
	}
	printHealth(out, srv.Health())
	if tracer != nil {
		st := tracer.Stats()
		fmt.Fprintf(out, "\ntraces: started %d  kept %d (%d head-sampled, %d dropped)  ring %d/%d\n",
			st.Started, st.Kept, st.Sampled, st.Dropped, st.RingLen, st.RingCap)
		if c.flightDir != "" {
			n, derr := recorder.Dumps()
			if derr != nil {
				return fmt.Errorf("flight recorder: %w", derr)
			}
			fmt.Fprintf(out, "flight recorder: %d events in ring, %d incident bundles in %s\n",
				len(recorder.Events()), n, c.flightDir)
		}
	}
	if rig != nil {
		return printChaos(out, rig)
	}
	return nil
}

// parseTenants decodes "gold:4,silver:2,best:1" (weight defaults to 1).
func parseTenants(s string) ([]autoscale.RouterTenant, []string, error) {
	if s == "" {
		return nil, nil, nil
	}
	var cfg []autoscale.RouterTenant
	var names []string
	for _, part := range strings.Split(s, ",") {
		name, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 {
				return nil, nil, fmt.Errorf("bad tenant weight in %q (want name:weight, weight >= 1)", part)
			}
			weight = w
		}
		if name == "" {
			return nil, nil, fmt.Errorf("empty tenant name in %q", s)
		}
		cfg = append(cfg, autoscale.RouterTenant{Name: name, Weight: weight})
		names = append(names, name)
	}
	return cfg, names, nil
}

// printHealth summarizes each engine's learning state: how much of the state
// space the policy has seen, how settled the Q-table is (TD-error EMA), and
// what the recent rewards look like.
func printHealth(out *os.File, health map[string]autoscale.EngineHealth) {
	if len(health) == 0 {
		return
	}
	fmt.Fprintf(out, "\nlearning health:\n")
	devs := make([]string, 0, len(health))
	for d := range health {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		h := health[dev]
		fmt.Fprintf(out, "  %-12s eps %.2f  coverage %5.1f%% (%d/%d states)  explore %4.1f%%  tdEMA %.3f  meanR %7.2f  entropy %.2f\n",
			dev, h.Epsilon, 100*h.Coverage, h.States, h.StateSpaceSize,
			100*h.ExplorationRatio, h.TDErrorEMA, h.MeanReward, h.VisitEntropy)
	}
}

// laneSpecs expands the device list by -replicas: each device D becomes
// lanes D-0..D-(r-1) backed by D's hardware ("D-0=D" specs). With one
// replica the plain names pass through.
func laneSpecs(devices []string, replicas int) (specs, lanes []string) {
	for _, device := range devices {
		if replicas == 1 {
			specs = append(specs, device)
			lanes = append(lanes, device)
			continue
		}
		for r := 0; r < replicas; r++ {
			lane := fmt.Sprintf("%s-%d", device, r)
			specs = append(specs, lane+"="+device)
			lanes = append(lanes, lane)
		}
	}
	return specs, lanes
}

// flood drives the server from c.clients goroutines, each with its own
// environment stream, and waits for every response. With fairness classes
// configured, each client cycles its requests through the tenant names. With
// the planner on, each client also stamps requests with a virtual arrival
// clock — exponential gaps at the -rate (or 100 req/s per client by
// default), compressed by any scheduled load surge — and drives the
// planner's tick from it, so capacity decisions replay under a fixed seed.
func flood(srv server, m *autoscale.DNNModel, c config, tenantNames []string, pl *autoscale.Planner, inj *autoscale.FaultInjector, rig *chaosRig) error {
	per := c.n / c.clients
	extra := c.n % c.clients
	// The control loops tick on the fleet's virtual clock after every
	// response: the chaos rig first (it advances the clock the checkpoint
	// fault sink reads), then federation.
	observe := func() {
		if rig != nil {
			rig.observe()
		}
		if c.sync > 0 {
			srv.MaybeSyncPolicies(srv.VirtualNow())
		}
	}
	errs := make(chan error, c.clients)
	var wg sync.WaitGroup
	for cl := 0; cl < c.clients; cl++ {
		count := per
		if cl < extra {
			count++
		}
		wg.Add(1)
		go func(cl, count int) {
			defer wg.Done()
			env, err := autoscale.NewEnvironment(c.envID, c.seed+int64(cl))
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(c.seed + int64(cl)))
			pending := make([]<-chan autoscale.Response, 0, count)
			// Virtual arrival rate per client: -rate when set, else 100
			// req/s total split across the clients.
			vrate := c.rate
			if vrate <= 0 {
				vrate = 100 / float64(c.clients)
			}
			arrival := 0.0
			for i := 0; i < count; i++ {
				if c.rate > 0 {
					time.Sleep(time.Duration(rng.ExpFloat64() / c.rate * float64(time.Second)))
				}
				req := autoscale.Request{Model: m, Conditions: env.Sample()}
				if pl != nil {
					arrival += rng.ExpFloat64() / (vrate * inj.SurgeFactor(arrival))
					req.ArrivalS = arrival
					pl.MaybeTick(arrival)
				}
				if len(tenantNames) > 0 {
					req.Tenant = tenantNames[(cl+i)%len(tenantNames)]
				}
				if c.deadline > 0 {
					req.Deadline = time.Now().Add(c.deadline)
				}
				if c.rate > 0 {
					// Open loop: fire and collect later.
					ch, err := srv.Submit(req)
					if err != nil {
						errs <- err
						return
					}
					pending = append(pending, ch)
					continue
				}
				if _, err := srv.Do(req); err != nil && !expectedFailure(err, rig != nil) {
					errs <- err
					return
				}
				observe()
			}
			for _, ch := range pending {
				<-ch
				observe()
			}
		}(cl, count)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// expectedFailure reports request errors that are outcomes the serving tier
// already counted rather than load-generator failures: admission sheds and
// expired deadlines always, and under a chaos storm the router's own
// terminations (every shard dead or cordoned at once, failover budget spent)
// — that run is judged by the invariant audit, not by its first failed
// request.
func expectedFailure(err error, chaos bool) bool {
	return errors.Is(err, autoscale.ErrQueueFull) || errors.Is(err, autoscale.ErrDeadlineExpired) ||
		chaos && (errors.Is(err, autoscale.ErrNoHealthyShard) || errors.Is(err, autoscale.ErrShardDown))
}

// printRouter summarizes the routing tier: its own counters, per-shard
// lifecycle rows and the tenant fairness queues.
func printRouter(out *os.File, rt *autoscale.Router) {
	rm := rt.RouterMetrics()
	fmt.Fprintf(out, "\nrouter: dispatched %d  shed %d  failed %d  failovers %d  rehomed %d  kills %d  drains %d\n",
		rm.Dispatched, rm.Shed, rm.Failed, rm.Failovers, rm.RehomedDevices, rm.ShardKills, rm.ShardDrains)
	for _, s := range rt.ShardStatuses() {
		fmt.Fprintf(out, "  %-10s %-9s served %6d  shed %4d  failed %4d  lanes %s\n",
			s.Name, s.State, s.Served, s.Shed, s.Failed, strings.Join(s.Devices, ","))
	}
	for _, t := range rt.TenantQueues() {
		if t.Admitted == 0 && t.Shed == 0 {
			continue
		}
		fmt.Fprintf(out, "  tenant %-8s weight %d  admitted %6d  shed %4d\n",
			t.Tenant, t.Weight, t.Admitted, t.Shed)
	}
}

// printPlan summarizes the capacity planner: the last applied decision and
// each SLO class's attainment — target p95 against the achieved p95 virtual
// response time.
func printPlan(out *os.File, pl *autoscale.Planner) {
	st := pl.Status()
	d := st.Decision
	fmt.Fprintf(out, "\nplan: generation %d  lanes %d/%d  budget %d  est %.1f req/s x surge %.1f  service %.1fms\n",
		d.Generation, d.ActiveLanes, d.TotalLanes, d.Budget, d.TotalRateHz, d.SurgeFactor, d.ServiceS*1e3)
	if d.Generation > 0 && !d.Held {
		wait := "unstable"
		if d.PredictedWaitS >= 0 {
			wait = fmt.Sprintf("%.1fms", d.PredictedWaitS*1e3)
		}
		fmt.Fprintf(out, "  model: predicted wait %s  occupancy %.2f predicted / %.2f measured  (calibration error %.0f%%)\n",
			wait, d.PredictedOccupancy, d.MeasuredOccupancy, 100*d.CalibrationError)
	}
	for _, cs := range st.Classes {
		verdict := "MISSED"
		if cs.Attained {
			verdict = "ok"
		}
		achieved := "(unmeasured)"
		if cs.AchievedP95S > 0 {
			achieved = fmt.Sprintf("%.1fms", cs.AchievedP95S*1e3)
		}
		fmt.Fprintf(out, "  slo %-8s target p95 %6.0fms  achieved %-12s %-6s  admitted %6d  shed %4d\n",
			cs.Name, cs.TargetP95S*1e3, achieved, verdict, cs.Admitted, cs.Shed)
	}
}

func printSnapshot(out *os.File, s autoscale.GatewayMetrics, wall time.Duration) {
	fmt.Fprintf(out, "\n%-14s %8d   (%.0f req/s wall)\n", "submitted", s.Submitted,
		float64(s.Submitted)/wall.Seconds())
	fmt.Fprintf(out, "%-14s %8d\n", "served", s.Served)
	fmt.Fprintf(out, "%-14s %8d\n", "shed", s.Shed)
	fmt.Fprintf(out, "%-14s %8d\n", "expired", s.Expired)
	fmt.Fprintf(out, "%-14s %8d\n", "failed", s.Failed)
	fmt.Fprintf(out, "%-14s %8d\n", "retried", s.Retried)
	fmt.Fprintf(out, "%-14s %8d\n", "outages", s.Outages)
	fmt.Fprintf(out, "%-14s %8d\n", "QoS misses", s.QoSViolations)
	fmt.Fprintf(out, "%-14s %8d\n", "queue max", s.QueueMaxDepth)
	if s.OutageWastedJ > 0 {
		fmt.Fprintf(out, "%-14s %8.2f J\n", "outage waste", s.OutageWastedJ)
	}
	if s.OffloadRetries > 0 || s.RetriesAbandoned > 0 {
		fmt.Fprintf(out, "%-14s %8d   (%d recovered, %d abandoned)\n",
			"offload retry", s.OffloadRetries, s.RetriesRecovered, s.RetriesAbandoned)
	}
	if s.Hedges > 0 {
		fmt.Fprintf(out, "%-14s %8d   (%d won, %d lost)\n",
			"hedges", s.Hedges, s.HedgesWon, s.HedgesLost)
	}
	if s.BreakerOpens > 0 {
		fmt.Fprintf(out, "%-14s %8d   (%d half-open, %d closed, %.1fs degraded)\n",
			"breaker trips", s.BreakerOpens, s.BreakerHalfOpens, s.BreakerCloses, s.DegradedSeconds)
	}
	if s.WorkerCrashes > 0 || s.CorruptDrills > 0 {
		fmt.Fprintf(out, "%-14s %8d   (%d corrupt drills)\n", "crashes", s.WorkerCrashes, s.CorruptDrills)
	}
	if len(s.ByBreaker) > 0 {
		fmt.Fprintf(out, "breakers:")
		for _, label := range sortedStrKeys(s.ByBreaker) {
			fmt.Fprintf(out, "  %s=%s", label, s.ByBreaker[label])
		}
		fmt.Fprintln(out)
	}
	if s.Served > 0 {
		fmt.Fprintf(out, "\nlatency  mean %6.1f ms   p50 %s   p99 %s\n",
			s.Latency.Mean()*1e3, quantileMS(s.Latency, 0.5), quantileMS(s.Latency, 0.99))
		fmt.Fprintf(out, "wait     mean %6.2f ms   p99 %s\n",
			s.Wait.Mean()*1e3, quantileMS(s.Wait, 0.99))
		fmt.Fprintf(out, "energy   mean %6.1f mJ   total %.1f J\n",
			s.Energy.Mean()*1e3, s.Energy.Sum)
	}
	if len(s.ByTarget) > 0 {
		fmt.Fprintf(out, "\ndecisions:")
		for _, loc := range sortedKeys(s.ByTarget) {
			fmt.Fprintf(out, "  %s %.1f%%", loc, 100*float64(s.ByTarget[loc])/float64(s.Served))
		}
		fmt.Fprintln(out)
	}
	if len(s.ByDevice) > 0 {
		fmt.Fprintf(out, "per device:")
		for _, dev := range sortedKeys(s.ByDevice) {
			fmt.Fprintf(out, "  %s %d", dev, s.ByDevice[dev])
		}
		fmt.Fprintln(out)
	}
}

// quantileMS renders a histogram quantile, which is a bucket upper bound and
// may be +Inf when the quantile lands in the overflow bucket.
func quantileMS(h interface{ Quantile(float64) float64 }, q float64) string {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		return ">max"
	}
	return fmt.Sprintf("<=%.1fms", v*1e3)
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedStrKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
