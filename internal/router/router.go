// Package router is the cluster-scale routing tier over gateway shards: one
// front door for a fleet too large for a single serve.Gateway. It owns what
// no single shard can decide — device-to-shard placement (consistent-hash
// ring with bounded-load overflow), cross-shard admission with a global
// in-flight budget, per-tenant weighted fairness (deficit round-robin over
// tenant queues), and shard lifecycle: crash drills on the virtual clock,
// graceful draining, and re-homing a lost shard's device lanes onto
// survivors with checkpoint warm-start. Within a shard, the gateway's own
// admission and deadline machinery applies unchanged; the router
// deliberately adds no second opinion on any per-request decision a shard
// already makes.
//
// Like the serving layer under it, the router is deterministic where it can
// be: placement is a pure function of device and shard names, DRR order is a
// pure function of the admission sequence, and crash drills fire on shard
// virtual time — so a fixed-seed storm replays byte-identical traces even
// across a mid-run shard kill.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/fault"
	"autoscale/internal/obs"
	"autoscale/internal/policy"
	"autoscale/internal/serve"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/tracez"
)

// Sentinel errors for router-terminated requests.
var (
	// ErrUnknownTenant marks a request naming a fairness class the router
	// was not configured with.
	ErrUnknownTenant = errors.New("router: unknown tenant")
	// ErrNoHealthyShard marks a request with no live shard left to serve it.
	ErrNoHealthyShard = errors.New("router: no healthy shard")
)

// DefaultTenant is the catch-all fairness class requests with an empty
// Tenant are billed to. The router always provisions it (weight 1) unless
// the configuration defines it explicitly.
const DefaultTenant = "default"

// Tenant is one weighted fairness class: under saturating load, tenants are
// served in proportion to their weights (deficit round-robin, unit cost per
// request). Weights below 1 are raised to 1.
type Tenant struct {
	Name   string
	Weight int
}

// ShardGateway names one gateway shard for the router.
type ShardGateway struct {
	Name    string
	Gateway *serve.Gateway
}

// Config tunes a Router.
type Config struct {
	// Tenants are the fairness classes. The DefaultTenant (weight 1) is
	// appended when absent so unclassified traffic is always admissible.
	Tenants []Tenant
	// GlobalBudget bounds in-flight requests across all shards (default 64):
	// cross-shard backpressure on top of each shard's own queue admission.
	GlobalBudget int
	// TenantQueueDepth bounds each tenant's router queue (default 256).
	TenantQueueDepth int
	// Shed selects the admission victim on a full tenant queue, mirroring
	// the gateway's policy vocabulary: ShedNewest rejects the arrival,
	// ShedOldest evicts the head of the tenant's queue.
	Shed serve.ShedPolicy
	// EngineFactory builds a fresh engine for a device being re-homed onto a
	// surviving shard (the dead shard's engine is gone with its process).
	// The new lane still warm-starts from the device's latest checkpoint via
	// the shard gateway's policy plane. Without a factory, a dead shard's
	// devices are lost and pinned requests to them fail.
	EngineFactory func(device string) (*core.Engine, error)
	// ShardFactory, when set, lets ReviveShard rebuild a drained or dead
	// shard's gateway from scratch: a fresh serve.Gateway over the named
	// device lanes, warm-started from the checkpoint store by its own
	// policy plane. Without it, downed shards stay down.
	ShardFactory func(name string, devices []string) (*serve.Gateway, error)
	// Checkpoints, when non-nil, is the fleet's one learning plane: the
	// router's policy syncer federates every shard's workers against it, so
	// experience merges fleet-wide. Shard gateways only warm-start from
	// the store and flush to it at shutdown; they run no syncer.
	Checkpoints policy.Sink
	// PolicySync tunes the cross-shard syncer.
	PolicySync policy.SyncConfig
	// Faults, when non-nil, scripts shard-crash drills: each shard_crash
	// spec kills its shard once the shard's virtual clock reaches the
	// event's time, exactly like the gateway's worker-level drills.
	Faults *fault.Injector
	// Clock overrides the router's time source (tests; default time.Now).
	Clock func() time.Time
	// Tracer, when non-nil, starts one causal trace per submitted request at
	// admission, so the span tree covers the whole path: router admission and
	// DRR dispatch, then the shard's queue/decide/execute legs. Shard configs
	// should NOT also set a Tracer — requests arrive at the gateway already
	// carrying their handle, and the gateway only annotates it.
	Tracer *tracez.Tracer
	// Recorder, when non-nil, is the incident flight recorder the tiers
	// above note their events into (supervisor ladder edges, planner
	// actuations).
	Recorder *tracez.FlightRecorder
}

func (c Config) globalBudget() int {
	if c.GlobalBudget <= 0 {
		return 64
	}
	return c.GlobalBudget
}

func (c Config) tenantQueueDepth() int {
	if c.TenantQueueDepth <= 0 {
		return 256
	}
	return c.TenantQueueDepth
}

const (
	// loadFactor is the bounded-load placement ceiling: no shard owns more
	// than ceil(loadFactor * devices / aliveShards) device lanes.
	loadFactor = 1.25
	// maxFailovers caps per-request re-dispatches after a shard bounce. A
	// request over the cap fails with the bounce error.
	maxFailovers = 2
)

// PlaceDevices computes the initial device-to-shard assignment the router
// and Fleet.ProvisionRouter share: consistent-hash placement with
// bounded-load overflow, a pure function of the name sets.
func PlaceDevices(devices, shards []string) map[string]string {
	return placeDevices(devices, shards, nil, loadFactor)
}

// shardState is the lifecycle of one shard.
type shardState int

const (
	shardHealthy shardState = iota
	shardDraining
	shardDrained
	shardDead
	// shardCordoned is a supervised placement hold: the shard keeps serving
	// pinned requests (its lanes stay homed) but receives no unpinned work
	// and is never a re-homing target, so a suspect shard can be observed
	// under reduced load without losing its warm state.
	shardCordoned
)

func (s shardState) String() string {
	switch s {
	case shardHealthy:
		return "healthy"
	case shardDraining:
		return "draining"
	case shardDrained:
		return "drained"
	case shardDead:
		return "dead"
	case shardCordoned:
		return "cordoned"
	}
	return fmt.Sprintf("shardState(%d)", int(s))
}

// serving reports whether the state accepts pinned traffic (healthy or
// cordoned).
func (s shardState) serving() bool { return s == shardHealthy || s == shardCordoned }

// shard is one gateway plus its lifecycle and drill state.
type shard struct {
	name     string
	gw       *serve.Gateway
	state    shardState
	inflight atomic.Int64 // router-dispatched requests inside this shard

	// lanes records the devices homed here at the last takedown, so a
	// revive can rebuild the same lane set; incarnation counts gateway
	// rebuilds (the supervisor audits virtual-clock monotonicity per
	// incarnation, since a fresh gateway's clock restarts at zero).
	lanes       []string
	incarnation int

	events    []fault.Event // scripted shard_crash drills, time-ordered
	nextEvent int
}

// rreq is one request in the routing tier, and the sink its shard delivers
// the terminal response to.
type rreq struct {
	rt          *Router
	req         serve.Request
	ch          chan serve.Response // Submit's result channel; nil for Do
	out         serve.Response      // a Do's terminal response, written in place
	done        chan struct{}       // wakes the Do caller once out is written
	submittedAt time.Time
	attempts    int    // failover re-dispatches consumed
	sh          *shard // where the current dispatch went
}

// Deliver runs the router's completion on whichever goroutine terminated the
// request inside the shard — a lane worker, the Do caller serving its own
// claim, or the dispatching goroutine for a shard-admission rejection.
func (r *rreq) Deliver(resp *serve.Response) { r.rt.complete(r, resp) }

// reply hands the caller its one terminal response: onto Submit's channel,
// or into a Do's envelope. Afterwards r belongs to the caller.
func (r *rreq) reply(resp *serve.Response) {
	if r.ch != nil {
		r.ch <- *resp
		return
	}
	r.out = *resp
	r.done <- struct{}{}
}

// rreqPool recycles envelopes (and their one-shot wake-up channels) for the
// synchronous Do path.
var rreqPool = sync.Pool{
	New: func() any { return &rreq{done: make(chan struct{}, 1)} },
}

// Router fronts a fleet of gateway shards. It is safe for concurrent use.
type Router struct {
	cfg         Config
	budget      atomic.Int64 // global in-flight budget; the planner retunes it live
	tenantDepth int          // default per-tenant queue bound (tenantQueue.depth overrides)

	// gated is true while any tenant has a positive admission-wait bound, so
	// ungated deployments never pay the backlog estimate on Submit.
	gated atomic.Bool

	// mu guards shard lifecycle state and the device-home map; the lock
	// order is mu before any gateway's internal lock.
	mu     sync.RWMutex
	shards map[string]*shard
	order  []string          // sorted shard names
	homes  map[string]string // device -> shard name, always a live shard

	// qmu guards the DRR scheduler and tenant queues.
	qmu sync.Mutex
	drr *drr

	// dmu is the dispatch mutex: whoever holds it is the one goroutine
	// pumping the scheduler, so DRR order is exactly dispatch order. A
	// submitter that can take it dispatches; everyone else leaves a wake
	// token for the dispatcher goroutine. Nothing executes under it: a Do
	// whose own request its pump sends to an idle lane claims that lane and
	// serves the request, completion included, only after releasing dmu.
	dmu sync.Mutex

	inflight atomic.Int64 // global in-flight dispatches
	rr       atomic.Uint64
	met      routerMetrics
	closed   atomic.Bool

	wake   chan struct{}
	stopc  chan struct{}
	dispWG sync.WaitGroup // dispatcher goroutine

	syncer *policy.Syncer // nil without cfg.Checkpoints; set once in New

	// epoch is the one wall-clock reading, taken at construction; now()
	// offsets it by the monotonic time elapsed since.
	epoch time.Time
}

// New builds a router over the given shards and starts its dispatcher.
// Shards need distinct non-empty names, non-nil gateways, and disjoint
// device sets (a device lane lives on exactly one shard).
func New(shards []ShardGateway, cfg Config) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("router: no shards")
	}
	if cfg.Shed != serve.ShedNewest && cfg.Shed != serve.ShedOldest {
		return nil, fmt.Errorf("router: unknown shed policy %d", cfg.Shed)
	}
	tenants := append([]Tenant(nil), cfg.Tenants...)
	hasDefault := false
	for _, t := range tenants {
		if t.Name == "" {
			return nil, errors.New("router: tenant with empty name")
		}
		if t.Name == DefaultTenant {
			hasDefault = true
		}
	}
	if !hasDefault {
		tenants = append(tenants, Tenant{Name: DefaultTenant, Weight: 1})
	}

	rt := &Router{
		cfg:         cfg,
		tenantDepth: cfg.tenantQueueDepth(),
		shards:      make(map[string]*shard, len(shards)),
		homes:       make(map[string]string),
		drr:         newDRR(tenants),
		wake:        make(chan struct{}, 1),
		stopc:       make(chan struct{}),
		epoch:       time.Now(),
	}
	rt.budget.Store(int64(cfg.globalBudget()))
	for _, sg := range shards {
		if sg.Name == "" {
			return nil, errors.New("router: shard with empty name")
		}
		if sg.Gateway == nil {
			return nil, fmt.Errorf("router: shard %q has nil gateway", sg.Name)
		}
		if _, dup := rt.shards[sg.Name]; dup {
			return nil, fmt.Errorf("router: duplicate shard %q", sg.Name)
		}
		sh := &shard{name: sg.Name, gw: sg.Gateway}
		if cfg.Faults != nil {
			sh.events = cfg.Faults.ShardEvents(sg.Name)
		}
		rt.shards[sg.Name] = sh
		rt.order = append(rt.order, sg.Name)
		for _, dev := range sg.Gateway.Devices() {
			if prev, dup := rt.homes[dev]; dup {
				return nil, fmt.Errorf("router: device %q on shards %q and %q", dev, prev, sg.Name)
			}
			rt.homes[dev] = sg.Name
		}
	}
	sort.Strings(rt.order)

	if cfg.Checkpoints != nil {
		scfg := cfg.PolicySync
		if scfg.Unreachable == nil && cfg.Faults != nil {
			// Scripted sync partitions: the lane serves but the cross-shard
			// syncer cannot reach it while its window holds.
			scfg.Unreachable = func(dev string) bool {
				return cfg.Faults.Partitioned(dev, rt.VirtualNow())
			}
		}
		s, err := policy.NewSyncer(cfg.Checkpoints, rt.policyNodes, scfg)
		if err != nil {
			return nil, fmt.Errorf("router: policy sync: %w", err)
		}
		rt.syncer = s
	}

	rt.dispWG.Add(1)
	go rt.run()
	return rt, nil
}

// now reads the router clock: cfg.Clock when set, otherwise the
// construction-time reading plus the monotonic time elapsed since, which
// costs a monotonic read instead of a wall-clock one.
func (rt *Router) now() time.Time {
	if rt.cfg.Clock != nil {
		return rt.cfg.Clock()
	}
	return rt.epoch.Add(time.Since(rt.epoch))
}

// wakeUp nudges the dispatcher (non-blocking; coalesces).
func (rt *Router) wakeUp() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// Submit runs cross-shard admission on one request: tenant classification,
// per-tenant queue bounds with the configured shed policy, then the DRR
// scheduler. The returned channel (buffered, delivered to exactly once)
// carries the terminal Response. The error return is reserved for misuse
// (nil model) and a closed router.
func (rt *Router) Submit(req serve.Request) (<-chan serve.Response, error) {
	r := &rreq{rt: rt, req: req, ch: make(chan serve.Response, 1)}
	if _, err := rt.submit(r, false); err != nil {
		return nil, err
	}
	return r.ch, nil
}

// submit admits one envelope. On a nil error r is guaranteed exactly one
// reply; on an error nothing was queued and nothing will be delivered. With
// claim set, a pump on this goroutine that sends r to an idle lane claims
// the lane instead of queueing r there, and the caller must serve the
// returned Claim.
func (rt *Router) submit(r *rreq, claim bool) (serve.Claim, error) {
	if r.req.Model == nil {
		return serve.Claim{}, errors.New("router: request needs a model")
	}
	if rt.closed.Load() {
		return serve.Claim{}, serve.ErrClosed
	}
	// Scripted crash drills fire here and nowhere else: on the submitter's
	// goroutine, before its request is queued, so a sequential driver never
	// runs concurrently with a kill.
	rt.fireDrills()
	rt.met.submitted.Add(1)
	now := rt.now()
	r.submittedAt = now

	name := r.req.Tenant
	if name == "" {
		name = DefaultTenant
	}
	// The normalized tenant flows through to the shard so traces and the
	// fairness accounting agree on the class.
	r.req.Tenant = name

	// Causal tracing starts at cross-shard admission: every later hop
	// (dispatch, shard queue, decide, recovery legs) annotates this handle.
	if rt.cfg.Tracer != nil && r.req.Trace == nil {
		r.req.Trace = rt.cfg.Tracer.Start(r.req.Model.Name, name, r.req.ArrivalS)
	}

	// The backlog estimate reads shard state under rt.mu, so it is computed
	// before qmu (the lock order never nests qmu inside mu or vice versa).
	// Negative means "no gate applies to this request".
	backlog := -1.0
	if rt.gated.Load() && r.req.ArrivalS > 0 {
		backlog = rt.MinBacklogS(r.req.ArrivalS)
	}

	rt.qmu.Lock()
	tq := rt.drr.queue(name)
	if tq == nil {
		rt.qmu.Unlock()
		rt.fail(r, fmt.Errorf("%w: %q", ErrUnknownTenant, name))
		return serve.Claim{}, nil
	}
	// Per-class admission gate: shed while the estimated backlog exceeds the
	// tenant's virtual-wait bound. Bounds ordered by class make overload
	// degrade strictly best-effort -> silver -> gold.
	if tq.maxVWaitS > 0 && backlog > tq.maxVWaitS {
		tq.shed++
		rt.met.shed.Add(1)
		rt.qmu.Unlock()
		rt.shed(r)
		return serve.Claim{}, nil
	}
	if tq.size() >= rt.queueDepthLocked(tq) {
		if rt.cfg.Shed == serve.ShedOldest && tq.size() > 0 {
			old := tq.popOldest()
			rt.drr.queued.Add(-1)
			tq.shed++
			rt.met.shed.Add(1)
			rt.shed(old)
		} else {
			tq.shed++
			rt.met.shed.Add(1)
			rt.qmu.Unlock()
			rt.shed(r)
			return serve.Claim{}, nil
		}
	}
	tq.admitted++
	rt.drr.push(tq, r)
	rt.qmu.Unlock()
	var own *rreq
	if claim {
		own = r
	}
	return rt.dispatch(own), nil
}

// queueDepthLocked returns a tenant queue's effective bound: its own depth
// when a planner set one, the router default otherwise. Caller holds qmu.
func (rt *Router) queueDepthLocked(tq *tenantQueue) int {
	if tq.depth > 0 {
		return tq.depth
	}
	return rt.tenantDepth
}

// shed answers one request with the terminal shed response and closes its
// trace — every router-level shed path (admission gate, full tenant queue,
// planner queue-depth evictions) terminates through here.
func (rt *Router) shed(r *rreq) {
	r.req.Trace.Flag(tracez.FlagShed)
	r.req.Trace.Finish("shed")
	r.reply(&serve.Response{
		Status: serve.StatusShed, Err: serve.ErrQueueFull,
		SubmittedAt: r.submittedAt, DoneAt: rt.now(),
	})
}

// Do submits one request and waits for its response — the synchronous
// convenience mirroring Gateway.Do, envelope recycling included. When this
// goroutine's own pump sends the request to an idle lane, Do serves it here,
// after the dispatch mutex is released, and the completion runs here too:
// no lane worker is woken and no response is handed across goroutines.
func (rt *Router) Do(req serve.Request) (resp serve.Response, err error) {
	r := rreqPool.Get().(*rreq)
	r.rt, r.req = rt, req
	c, err := rt.submit(r, true)
	if err == nil {
		c.Serve()
		<-r.done
		resp = r.out
		if resp.Status != serve.StatusServed {
			err = resp.Err
		}
	}
	// Everything but the drained channel is cleared, the router included: a
	// second delivery to a pooled envelope has nothing to complete on.
	*r = rreq{done: r.done}
	rreqPool.Put(r)
	return resp, err
}

// run is the dispatcher goroutine: it pumps for every submitter that found
// the dispatch mutex taken, for completions that free budget a queued request
// was waiting on, and for lifecycle and planner calls that change what can
// be dispatched.
func (rt *Router) run() {
	defer rt.dispWG.Done()
	for {
		select {
		case <-rt.stopc:
			return
		case <-rt.wake:
		}
		rt.dmu.Lock()
		rt.pump(nil)
		rt.dmu.Unlock()
	}
}

// dispatch pumps on the calling goroutine when the dispatch mutex is free.
// When it is not, the holder may already be past its last pick, so the
// request is left to the dispatcher goroutine: the wake token outlives the
// holder's critical section. own is the caller's request when the caller
// will serve a claim on it (Do), nil otherwise; the claim, if the pump made
// one, is returned for serving after dmu is released.
func (rt *Router) dispatch(own *rreq) serve.Claim {
	if !rt.dmu.TryLock() {
		rt.wakeUp()
		return serve.Claim{}
	}
	c := rt.pump(own)
	rt.dmu.Unlock()
	return c
}

// pump drains the scheduler until the global budget is saturated or the
// queues are empty. Every picked request is queued on its shard, except own,
// which claims its lane when the lane is idle. Caller holds dmu.
func (rt *Router) pump(own *rreq) (c serve.Claim) {
	// An empty scheduler is read without qmu: a request pushed after the
	// read belongs to a submitter that finds dmu taken and leaves a token.
	for rt.inflight.Load() < rt.budget.Load() && rt.drr.queued.Load() > 0 {
		rt.qmu.Lock()
		r := rt.drr.pick()
		rt.qmu.Unlock()
		if r == nil {
			return c
		}
		if r == own {
			c = rt.dispatchOne(r, true)
		} else {
			rt.dispatchOne(r, false)
		}
	}
	return c
}

// fireDrills kills any healthy shard whose next scripted shard_crash event
// has come due on the shard's virtual clock. Checked at every submission, so
// under deterministic (sequential) driving the kill lands at the same request
// index every run, with nothing else moving while it does.
func (rt *Router) fireDrills() {
	if rt.cfg.Faults == nil {
		return
	}
	for {
		victim := ""
		rt.mu.RLock()
		for _, name := range rt.order {
			sh := rt.shards[name]
			if !sh.state.serving() || sh.nextEvent >= len(sh.events) {
				continue
			}
			if ev := sh.events[sh.nextEvent]; ev.Kind == fault.KindShardCrash && sh.gw.VirtualNow() >= ev.AtS {
				victim = name
				break
			}
		}
		rt.mu.RUnlock()
		if victim == "" {
			return
		}
		rt.mu.Lock()
		sh := rt.shards[victim]
		fire := sh.state.serving() && sh.nextEvent < len(sh.events)
		if fire {
			sh.nextEvent++
		}
		rt.mu.Unlock()
		if fire {
			rt.KillShard(victim) //nolint:errcheck // racing lifecycle is benign
		}
	}
}

// dispatchOne routes a picked request to its shard, with the request itself
// as the sink for the shard's response. Pinned requests go to the device's
// home shard; unpinned requests go to the least-loaded healthy shard (fewest
// router-dispatched requests in flight, shard-name tiebreak). With claim set
// the shard claims an idle lane for it rather than queueing it, and the
// claim is returned.
func (rt *Router) dispatchOne(r *rreq, claim bool) serve.Claim {
	rt.mu.RLock()
	var sh *shard
	var err error
	if r.req.Device != "" {
		home, ok := rt.homes[r.req.Device]
		if !ok {
			err = fmt.Errorf("%w: %q", serve.ErrUnknownDevice, r.req.Device)
		} else if s := rt.shards[home]; s.state.serving() {
			sh = s
		} else {
			err = fmt.Errorf("%w: device %q homed on %s shard %q", ErrNoHealthyShard, r.req.Device, s.state, home)
		}
	} else {
		// Least-loaded healthy shard; a rotating start breaks ties so an
		// underloaded fleet still spreads across shards.
		offset := int(rt.rr.Add(1))
		for i := 0; i < len(rt.order); i++ {
			s := rt.shards[rt.order[(offset+i)%len(rt.order)]]
			if s.state != shardHealthy {
				continue
			}
			if sh == nil || s.inflight.Load() < sh.inflight.Load() {
				sh = s
			}
		}
		if sh == nil {
			err = ErrNoHealthyShard
		}
	}
	rt.mu.RUnlock()
	if sh == nil {
		rt.fail(r, err)
		return serve.Claim{}
	}
	sh.inflight.Add(1)
	rt.inflight.Add(1)
	rt.met.dispatched.Add(1)
	r.sh = sh
	// The dispatch span records the router-side delay (admission to shard
	// handoff) and the chosen shard; a failed-over request accumulates one
	// dispatch span per hop. Span is nil-safe; the test spares an untraced
	// request the clock read.
	if r.req.Trace != nil {
		r.req.Trace.Span("dispatch", rt.now().Sub(r.submittedAt).Seconds(), sh.name)
	}
	var c serve.Claim
	if claim {
		c, err = sh.gw.ClaimTo(r.req, r)
	} else {
		err = sh.gw.SubmitTo(r.req, r)
	}
	if err != nil {
		// Admission refused: the shard closed between routing and submit.
		rt.complete(r, &serve.Response{
			Status: serve.StatusFailed, Err: err,
			SubmittedAt: r.submittedAt, DoneAt: rt.now(),
		})
	}
	return c
}

// fail terminates one request at the router.
func (rt *Router) fail(r *rreq, err error) {
	rt.met.failed.Add(1)
	r.req.Trace.Flag(tracez.FlagFailed)
	r.req.Trace.Finish("failed")
	r.reply(&serve.Response{
		Status: serve.StatusFailed, Err: err,
		SubmittedAt: r.submittedAt, DoneAt: rt.now(),
	})
}

// complete takes the shard's terminal response for one dispatched request
// and relays it — unless the shard bounced it (killed or draining), in which
// case the request re-enters the scheduler for failover, up to maxFailovers.
// The requeue happens before the in-flight gauges drop so Shutdown's quiet
// check (queues empty AND nothing in flight) can never miss a failover in
// motion.
//
// It runs on the goroutine that produced the response: one holding the
// shard's lane — a lane worker, or a Do caller serving its own claim after
// releasing dmu — or, for a rejection at shard admission, the pumping
// goroutine under dmu. So it may not dispatch (it would serve other shards'
// traffic from this lane, or block on dmu under the goroutine that holds it)
// and may not take a shard down (Kill and Shutdown wait for the very worker
// or claim it runs in). It leaves both to a wake token. resp lives in the
// shard's pooled envelope and is valid only until complete returns. Once the
// response is replied or the request requeued, r belongs to someone else.
func (rt *Router) complete(r *rreq, resp *serve.Response) {
	sh := r.sh
	bounced := resp.Status == serve.StatusFailed &&
		(errors.Is(resp.Err, serve.ErrShardDown) || errors.Is(resp.Err, serve.ErrClosed))

	if bounced && r.attempts < maxFailovers {
		r.attempts++
		rt.met.failovers.Add(1)
		// The same trace keeps accumulating: the next dispatch span lands on
		// the surviving shard, and the failover flag tail-keeps the trace.
		r.req.Trace.Flag(tracez.FlagFailover)
		rt.qmu.Lock()
		tq := rt.drr.queue(r.req.Tenant)
		if tq != nil {
			rt.drr.push(tq, r)
		}
		rt.qmu.Unlock()
		sh.inflight.Add(-1)
		rt.inflight.Add(-1)
		if tq == nil {
			rt.fail(r, resp.Err)
		}
		rt.wakeUp()
		return
	}

	if bounced {
		rt.met.failed.Add(1)
	} else {
		rt.met.completed.Add(1)
	}
	if resp.Status == serve.StatusFailed {
		// Bounced or admission-refused requests never reached a finishing
		// point inside the shard. The handle is one-shot, so this is a no-op
		// for traces the gateway already closed.
		r.req.Trace.Flag(tracez.FlagFailed)
		r.req.Trace.Finish("failed")
	}
	sh.inflight.Add(-1)
	rt.inflight.Add(-1)
	r.reply(resp)
	// The freed budget matters only to a request already queued behind it; a
	// later one reads the lowered gauge itself.
	if rt.drr.queued.Load() > 0 {
		rt.wakeUp()
	}
}

// KillShard crashes one healthy shard: its device lanes re-home onto
// survivors (fresh engines from the factory, warm-started from their latest
// checkpoints by the target gateway), the shard's queued requests bounce
// with ErrShardDown and fail over, and — crash semantics — nothing the shard
// had not already checkpointed survives.
func (rt *Router) KillShard(name string) error {
	sh, moved, err := rt.takeDown(name, shardDead)
	if err != nil {
		return err
	}
	killErr := sh.gw.Kill()
	rt.met.shardKills.Add(1)
	rt.met.rehomed.Add(uint64(moved))
	rt.wakeUp()
	return killErr
}

// DrainShard gracefully retires one healthy shard: a synchronous federation
// pass first (so checkpoints are fresh), then its device lanes re-home onto
// survivors, then the gateway drains its queues and flushes checkpoints and
// trace. Unlike KillShard, queued requests on the draining shard still
// execute.
func (rt *Router) DrainShard(ctx context.Context, name string) error {
	if rt.cfg.Checkpoints != nil {
		if _, err := rt.SyncPolicies(); err != nil {
			return fmt.Errorf("router: drain %s: pre-drain sync: %w", name, err)
		}
	}
	sh, moved, err := rt.takeDown(name, shardDraining)
	if err != nil {
		return err
	}
	rt.met.shardDrains.Add(1)
	rt.met.rehomed.Add(uint64(moved))
	shutErr := sh.gw.Shutdown(ctx)
	rt.mu.Lock()
	sh.state = shardDrained
	rt.mu.Unlock()
	rt.wakeUp()
	return shutErr
}

// takeDown transitions one serving (healthy or cordoned) shard to the given
// state and re-homes its devices, all under the lifecycle lock. The lane set
// owned at takedown is recorded so ReviveShard can rebuild it.
func (rt *Router) takeDown(name string, to shardState) (*shard, int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh, ok := rt.shards[name]
	if !ok {
		return nil, 0, fmt.Errorf("router: unknown shard %q", name)
	}
	if !sh.state.serving() {
		return nil, 0, fmt.Errorf("router: shard %q is %s", name, sh.state)
	}
	sh.state = to
	sh.lanes = sh.lanes[:0]
	for dev, home := range rt.homes {
		if home == name {
			sh.lanes = append(sh.lanes, dev)
		}
	}
	sort.Strings(sh.lanes)
	return sh, rt.rehomeLocked(sh), nil
}

// CordonShard places a hold on one healthy shard: it keeps its lanes and
// keeps serving pinned requests, but receives no new unpinned work and is
// excluded from re-homing and planner capacity until uncordoned.
func (rt *Router) CordonShard(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh, ok := rt.shards[name]
	if !ok {
		return fmt.Errorf("router: unknown shard %q", name)
	}
	if sh.state != shardHealthy {
		return fmt.Errorf("router: shard %q is %s, not healthy", name, sh.state)
	}
	sh.state = shardCordoned
	rt.met.cordons.Add(1)
	return nil
}

// UncordonShard lifts a cordon, returning the shard to full service.
func (rt *Router) UncordonShard(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh, ok := rt.shards[name]
	if !ok {
		return fmt.Errorf("router: unknown shard %q", name)
	}
	if sh.state != shardCordoned {
		return fmt.Errorf("router: shard %q is %s, not cordoned", name, sh.state)
	}
	sh.state = shardHealthy
	rt.met.uncordons.Add(1)
	rt.wakeUp()
	return nil
}

// ReviveShard restarts a drained or dead shard: a fresh gateway over the
// shard's recorded lane set from Config.ShardFactory (warm-started from the
// checkpoint store by the gateway's policy plane), its lanes reclaimed from
// whichever survivors hold them, and the shard returned to healthy. The
// incarnation counter bumps so clock-monotonicity audits reset. Survivor
// gateways keep their now-stale lane copies; every routing decision filters
// by the home map, so those lanes simply idle.
func (rt *Router) ReviveShard(name string) error {
	if rt.cfg.ShardFactory == nil {
		return errors.New("router: no shard factory configured")
	}
	if rt.closed.Load() {
		return serve.ErrClosed
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh, ok := rt.shards[name]
	if !ok {
		return fmt.Errorf("router: unknown shard %q", name)
	}
	if sh.state != shardDrained && sh.state != shardDead {
		return fmt.Errorf("router: shard %q is %s, not revivable", name, sh.state)
	}
	if len(sh.lanes) == 0 {
		return fmt.Errorf("router: shard %q has no recorded lanes", name)
	}
	gw, err := rt.cfg.ShardFactory(name, append([]string(nil), sh.lanes...))
	if err != nil {
		return fmt.Errorf("router: revive %s: %w", name, err)
	}
	sh.gw = gw
	sh.state = shardHealthy
	sh.incarnation++
	for _, dev := range gw.Devices() {
		rt.homes[dev] = name
	}
	rt.met.revives.Add(1)
	rt.wakeUp()
	return nil
}

// rehomeLocked moves every device homed on sh to a surviving healthy shard:
// consistent-hash placement over the survivor set with bounded-load
// overflow, a fresh engine from the factory, and the target gateway's
// checkpoint warm-start. Devices the factory cannot rebuild (or with no
// survivor to land on) are dropped from the home map; pinned requests to
// them fail fast. Returns the number of lanes moved. Caller holds rt.mu.
func (rt *Router) rehomeLocked(sh *shard) int {
	var orphans []string
	for dev, home := range rt.homes {
		if home == sh.name {
			orphans = append(orphans, dev)
		}
	}
	sort.Strings(orphans)
	if len(orphans) == 0 {
		return 0
	}

	var alive []string
	counts := make(map[string]int)
	for _, name := range rt.order {
		if rt.shards[name].state == shardHealthy {
			alive = append(alive, name)
			counts[name] = 0
		}
	}
	for dev, home := range rt.homes {
		if _, ok := counts[home]; ok && dev != "" {
			counts[home]++
		}
	}
	if len(alive) == 0 || rt.cfg.EngineFactory == nil {
		for _, dev := range orphans {
			delete(rt.homes, dev)
		}
		return 0
	}

	placed := placeDevices(orphans, alive, counts, loadFactor)
	moved := 0
	for _, dev := range orphans {
		target := placed[dev]
		engine, err := rt.cfg.EngineFactory(dev)
		if err != nil {
			delete(rt.homes, dev)
			continue
		}
		if err := rt.shards[target].gw.AddBackend(serve.Backend{Device: dev, Engine: engine}); err != nil {
			delete(rt.homes, dev)
			continue
		}
		rt.homes[dev] = target
		moved++
	}
	return moved
}

// CondemnShard marks a drained shard permanently dead — the supervisor's
// terminal verdict when a shard's remediation budget is exhausted, so a
// flapping shard converges to dead instead of oscillating through restarts.
// Condemning a dead shard is a no-op.
func (rt *Router) CondemnShard(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh, ok := rt.shards[name]
	if !ok {
		return fmt.Errorf("router: unknown shard %q", name)
	}
	switch sh.state {
	case shardDead:
		return nil
	case shardDrained:
		sh.state = shardDead
		return nil
	}
	return fmt.Errorf("router: shard %q is %s, not condemnable", name, sh.state)
}

// Devices returns the routable device names in sorted order.
func (rt *Router) Devices() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return slices.Sorted(maps.Keys(rt.homes))
}

// Closed reports whether Shutdown has begun.
func (rt *Router) Closed() bool { return rt.closed.Load() }

// RouterMetrics copies the routing tier's own counters.
func (rt *Router) RouterMetrics() RouterSnapshot { return rt.met.snapshot() }

// Tracer exposes the routing tier's causal tracer — nil when tracing is off.
// It lights up the admin server's /traces endpoints.
func (rt *Router) Tracer() *tracez.Tracer { return rt.cfg.Tracer }

// Recorder exposes the incident flight recorder (nil when not configured),
// so the supervision and planning tiers note their events into one ring.
func (rt *Router) Recorder() *tracez.FlightRecorder { return rt.cfg.Recorder }

// Snapshot merges every shard's metrics registry into one fleet-wide view
// (dead shards included — their counters froze at the kill but their served
// history still counts). The cross-shard syncer is the fleet's one
// federation plane, so its health fills the Sync* fields after the merge.
func (rt *Router) Snapshot() metrics.Snapshot {
	rt.mu.RLock()
	snaps := make([]metrics.Snapshot, 0, len(rt.order))
	for _, name := range rt.order {
		snaps = append(snaps, rt.shards[name].gw.Snapshot())
	}
	rt.mu.RUnlock()
	s := metrics.Merge(snaps...)
	if rt.syncer != nil {
		h := rt.syncer.Health()
		s.SyncPasses = int64(h.Passes)
		s.SyncFailures = int64(h.Failures)
		s.SyncConsecutiveFailures = int64(h.ConsecutiveFailures)
		s.SyncLastError = h.LastError
	}
	return s
}

// Health unions per-device learning health across live shards, filtered to
// each device's current home so a re-homed device reports from the lane that
// actually serves it.
func (rt *Router) Health() map[string]core.Health {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]core.Health, len(rt.homes))
	for _, name := range rt.order {
		sh := rt.shards[name]
		if !sh.state.serving() && sh.state != shardDraining {
			continue
		}
		for dev, h := range sh.gw.Health() {
			if rt.homes[dev] == name {
				out[dev] = h
			}
		}
	}
	return out
}

// ShardStatus is one shard's row in the /shards document.
type ShardStatus struct {
	// Name is the shard label (Config.Name).
	Name string `json:"name"`
	// State is the lifecycle state: "healthy", "cordoned", "draining",
	// "drained" or "dead".
	State string `json:"state"`
	// Incarnation counts gateway rebuilds (supervisor revives); 0 for the
	// original gateway.
	Incarnation int `json:"incarnation,omitempty"`
	// Devices are the device lanes currently homed on the shard, sorted.
	Devices []string `json:"devices"`
	// QueueDepth is the shard's aggregate queued-request gauge.
	QueueDepth int64 `json:"queue_depth"`
	// Served / Shed / Failed are the shard's terminal-outcome counters.
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
	Failed int64 `json:"failed"`
	// VirtualS is the shard's virtual clock (max over its engines).
	VirtualS float64 `json:"virtual_s"`
}

// TenantQueueStatus is one tenant's row in the /shards document: the
// routing-tier fairness queue for that tenant.
type TenantQueueStatus struct {
	// Tenant is the fairness class name.
	Tenant string `json:"tenant"`
	// Weight is the tenant's configured DRR weight.
	Weight int `json:"weight"`
	// Queued is the number of requests waiting in the tenant's queue.
	Queued int `json:"queued"`
	// Admitted / Shed count the tenant's requests past admission and
	// sacrificed at admission.
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	// Depth is the queue's effective bound (the router default until a
	// planner overrides it per tenant).
	Depth int `json:"depth,omitempty"`
	// MaxVWaitS, when positive, is the admission gate: arrival-stamped
	// requests are shed while the estimated backlog exceeds it.
	MaxVWaitS float64 `json:"max_vwait_s,omitempty"`
}

// ShardStatuses reports each shard's lifecycle row for the admin /shards
// document, in shard-name order.
func (rt *Router) ShardStatuses() []ShardStatus {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]ShardStatus, 0, len(rt.order))
	for _, name := range rt.order {
		sh := rt.shards[name]
		var devices []string
		for dev, home := range rt.homes {
			if home == name {
				devices = append(devices, dev)
			}
		}
		sort.Strings(devices)
		snap := sh.gw.Snapshot()
		out = append(out, ShardStatus{
			Name:        name,
			State:       sh.state.String(),
			Incarnation: sh.incarnation,
			Devices:     devices,
			QueueDepth:  snap.QueueDepth,
			Served:      snap.Served,
			Shed:        snap.Shed,
			Failed:      snap.Failed,
			VirtualS:    sh.gw.VirtualNow(),
		})
	}
	return out
}

// ShardClock is one shard's lifecycle and virtual clock: all the fleet
// auditor samples, read without touching the shard's metrics registries.
type ShardClock struct {
	Name        string
	State       string
	Incarnation int
	VirtualS    float64
}

// ShardClocks reports every shard's lifecycle and clock in shard-name order.
func (rt *Router) ShardClocks() []ShardClock {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]ShardClock, 0, len(rt.order))
	for _, name := range rt.order {
		out = append(out, rt.shardClock(name))
	}
	return out
}

// shardClock reads one shard's clock row; the caller holds rt.mu.
func (rt *Router) shardClock(name string) ShardClock {
	sh := rt.shards[name]
	return ShardClock{
		Name:        name,
		State:       sh.state.String(),
		Incarnation: sh.incarnation,
		VirtualS:    sh.gw.VirtualNow(),
	}
}

// ShardSignal is one shard's raw health inputs, gathered in a single locked
// pass for the supervisor: lifecycle and clock, the shard's metrics snapshot
// (the same serve.Gateway.Snapshot the admin endpoint serves; the supervisor
// scores its latency histogram, worker crashes and queue depth), per-device learning health, and the in-flight gauge.
type ShardSignal struct {
	ShardClock
	Inflight int64
	metrics.Snapshot
	Health map[string]core.Health
}

// ShardSignals collects every shard's health inputs in shard-name order.
// Dead and drained shards report their frozen counters (nil Health), so a
// supervisor can still audit their final accounting.
func (rt *Router) ShardSignals() []ShardSignal {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]ShardSignal, 0, len(rt.order))
	for _, name := range rt.order {
		sh := rt.shards[name]
		sig := ShardSignal{
			ShardClock: rt.shardClock(name),
			Inflight:   sh.inflight.Load(),
			Snapshot:   sh.gw.Snapshot(),
		}
		if sh.state.serving() || sh.state == shardDraining {
			sig.Health = sh.gw.Health()
		}
		out = append(out, sig)
	}
	return out
}

// TenantQueues reports each tenant's fairness-queue row, in tenant-name
// order.
func (rt *Router) TenantQueues() []TenantQueueStatus {
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	out := make([]TenantQueueStatus, 0, len(rt.drr.order))
	for _, tq := range rt.drr.order {
		out = append(out, TenantQueueStatus{
			Tenant:    tq.name,
			Weight:    tq.weight,
			Queued:    tq.size(),
			Admitted:  tq.admitted,
			Shed:      tq.shed,
			Depth:     rt.queueDepthLocked(tq),
			MaxVWaitS: tq.maxVWaitS,
		})
	}
	return out
}

// --- planner actuators -----------------------------------------------------
//
// The capacity planner's narrow setters. Each is clamped, takes effect at
// the next admission or dispatch decision (never mid-request), and is safe
// to call while traffic flows.

// Inflight returns the router-dispatched requests currently in flight — the
// gauge the reconfiguration invariants are asserted against.
func (rt *Router) Inflight() int64 { return rt.inflight.Load() }

// GlobalBudget returns the current cross-shard in-flight budget.
func (rt *Router) GlobalBudget() int { return int(rt.budget.Load()) }

// SetGlobalBudget retunes the cross-shard in-flight budget (clamped to >= 1)
// and returns the applied value. Shrinking below the current in-flight count
// sheds nothing: dispatch simply pauses until completions drain under the
// new bound, so no admitted request is stranded or double-terminated.
func (rt *Router) SetGlobalBudget(n int) int {
	if n < 1 {
		n = 1
	}
	rt.budget.Store(int64(n))
	rt.wakeUp()
	return n
}

// SetTenantWeight retunes one tenant's DRR weight (clamped to >= 1). Stale
// deficit above the new weight is forfeited so an old generous weight cannot
// linger as burst credit.
func (rt *Router) SetTenantWeight(tenant string, weight int) error {
	if weight < 1 {
		weight = 1
	}
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	tq := rt.drr.queue(tenant)
	if tq == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	tq.weight = weight
	if tq.deficit > weight {
		tq.deficit = weight
	}
	return nil
}

// SetTenantQueueDepth retunes one tenant's queue bound (clamped to >= 1).
// Shrinking below the current occupancy evicts the excess immediately under
// the router's shed policy (oldest-first for ShedOldest, newest-first
// otherwise); every evicted request gets a terminal shed response and is
// counted exactly once. Returns the number evicted.
func (rt *Router) SetTenantQueueDepth(tenant string, depth int) (int, error) {
	if depth < 1 {
		depth = 1
	}
	rt.qmu.Lock()
	tq := rt.drr.queue(tenant)
	if tq == nil {
		rt.qmu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	tq.depth = depth
	var evicted []*rreq
	for tq.size() > depth {
		var victim *rreq
		if rt.cfg.Shed == serve.ShedOldest {
			victim = tq.popOldest()
		} else {
			victim = tq.popNewest()
		}
		rt.drr.queued.Add(-1)
		tq.shed++
		rt.met.shed.Add(1)
		evicted = append(evicted, victim)
	}
	rt.qmu.Unlock()
	for _, v := range evicted {
		rt.shed(v)
	}
	return len(evicted), nil
}

// SetAdmissionWait retunes one tenant's admission gate: arrival-stamped
// requests are shed while the estimated backlog (MinBacklogS) exceeds
// maxVWaitS. Zero (or negative) removes the gate.
func (rt *Router) SetAdmissionWait(tenant string, maxVWaitS float64) error {
	if maxVWaitS < 0 {
		maxVWaitS = 0
	}
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	tq := rt.drr.queue(tenant)
	if tq == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	tq.maxVWaitS = maxVWaitS
	gated := false
	for _, q := range rt.drr.order {
		if q.maxVWaitS > 0 {
			gated = true
			break
		}
	}
	rt.gated.Store(gated)
	return nil
}

// MinBacklogS estimates how long a request stamped with the given virtual
// arrival would wait before any lane could start it: the minimum active-lane
// clock across healthy shards minus the arrival, floored at zero.
func (rt *Router) MinBacklogS(arrivalS float64) float64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	min := math.Inf(1)
	for _, name := range rt.order {
		sh := rt.shards[name]
		if sh.state != shardHealthy {
			continue
		}
		if c := sh.gw.MinLaneClock(); c < min {
			min = c
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	if b := min - arrivalS; b > 0 {
		return b
	}
	return 0
}

// TotalLanes sums worker lanes across healthy shards (active or not) — the
// planner's scale-out ceiling.
func (rt *Router) TotalLanes() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	total := 0
	for _, name := range rt.order {
		if sh := rt.shards[name]; sh.state == shardHealthy {
			total += sh.gw.LaneCount()
		}
	}
	return total
}

// ActiveLanes sums the active worker-pool sizes across healthy shards.
func (rt *Router) ActiveLanes() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	total := 0
	for _, name := range rt.order {
		if sh := rt.shards[name]; sh.state == shardHealthy {
			total += sh.gw.ActiveLanes()
		}
	}
	return total
}

// SetActiveLanes distributes a total active-lane count over the healthy
// shards — at least one lane per shard, round-robin in shard-name order for
// the rest, clamped to each shard's lane count — and returns the applied
// total. This is the planner's worker-pool actuator: deactivated lanes
// drain what they hold and then idle, so shrinking never preempts a request.
func (rt *Router) SetActiveLanes(total int) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	type target struct {
		sh    *shard
		lanes int // capacity
		want  int
	}
	var ts []target
	capacity := 0
	for _, name := range rt.order {
		if sh := rt.shards[name]; sh.state == shardHealthy {
			n := sh.gw.LaneCount()
			ts = append(ts, target{sh: sh, lanes: n, want: 0})
			capacity += n
		}
	}
	if len(ts) == 0 {
		return 0
	}
	if total < len(ts) {
		total = len(ts)
	}
	if total > capacity {
		total = capacity
	}
	remaining := total
	for remaining > 0 {
		progressed := false
		for i := range ts {
			if remaining == 0 {
				break
			}
			if ts[i].want < ts[i].lanes {
				ts[i].want++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	applied := 0
	for _, t := range ts {
		applied += t.sh.gw.SetActiveLanes(t.want)
	}
	return applied
}

// shardsDoc is the /shards document: the routing tier's lifecycle and
// fairness view.
type shardsDoc struct {
	Shards  []ShardStatus       `json:"shards"`
	Tenants []TenantQueueStatus `json:"tenants"`
}

func (rt *Router) shardsJSON() ([]byte, error) {
	b, err := json.MarshalIndent(shardsDoc{rt.ShardStatuses(), rt.TenantQueues()}, "", "  ")
	return append(b, '\n'), err
}

// AdminView is the routing tier's admin contribution: the /shards document
// and the autoscale_router_* series.
func (rt *Router) AdminView() serve.View {
	return serve.View{Path: "/shards", JSON: rt.shardsJSON, Prom: rt.AppendProm}
}

// AppendProm appends the router's own series; the merged shard metrics come
// from Snapshot and Health like any other admin source's.
func (rt *Router) AppendProm(p *obs.Prom) {
	rs := rt.met.snapshot()
	p.Counter("autoscale_router_submitted_total", "Requests entering cross-shard admission.", float64(rs.Submitted))
	p.Counter("autoscale_router_dispatched_total", "Requests dispatched to a shard.", float64(rs.Dispatched))
	p.Counter("autoscale_router_shed_total", "Requests shed at tenant-queue admission.", float64(rs.Shed))
	p.Counter("autoscale_router_failed_total", "Requests terminated by the router.", float64(rs.Failed))
	p.Counter("autoscale_router_completed_total", "Shard responses relayed to callers.", float64(rs.Completed))
	p.Counter("autoscale_router_failovers_total", "Re-dispatches after a shard bounce.", float64(rs.Failovers))
	p.Counter("autoscale_router_rehomed_devices_total", "Device lanes moved to a surviving shard.", float64(rs.RehomedDevices))
	p.Counter("autoscale_router_shard_kills_total", "Shards crashed (drills or KillShard).", float64(rs.ShardKills))
	p.Counter("autoscale_router_shard_drains_total", "Shards gracefully drained.", float64(rs.ShardDrains))
	p.Counter("autoscale_router_shard_cordons_total", "Shards cordoned by supervision.", float64(rs.Cordons))
	p.Counter("autoscale_router_shard_uncordons_total", "Cordons lifted.", float64(rs.Uncordons))
	p.Counter("autoscale_router_shard_revives_total", "Shards restarted from the factory.", float64(rs.Revives))
	p.Gauge("autoscale_router_inflight", "Router-dispatched requests in flight.", float64(rt.inflight.Load()))
	alive := 0
	for _, s := range rt.ShardStatuses() {
		if s.State == "healthy" {
			alive++
		}
		p.Gauge("autoscale_router_shard_state", "Shard lifecycle: 0 healthy, 1 draining, 2 drained, 3 dead, 4 cordoned.",
			shardStateValue(s.State), "shard", s.Name)
		p.Gauge("autoscale_router_shard_devices", "Device lanes homed on the shard.",
			float64(len(s.Devices)), "shard", s.Name)
	}
	p.Gauge("autoscale_router_shards_alive", "Healthy shards.", float64(alive))
	for _, t := range rt.TenantQueues() {
		p.Gauge("autoscale_router_tenant_weight", "Configured DRR weight.", float64(t.Weight), "tenant", t.Tenant)
		p.Gauge("autoscale_router_tenant_queued", "Requests waiting in the tenant queue.", float64(t.Queued), "tenant", t.Tenant)
		p.Counter("autoscale_router_tenant_admitted_total", "Requests admitted per tenant.", float64(t.Admitted), "tenant", t.Tenant)
		p.Counter("autoscale_router_tenant_shed_total", "Requests shed per tenant.", float64(t.Shed), "tenant", t.Tenant)
	}
}

func shardStateValue(state string) float64 {
	switch state {
	case "draining":
		return 1
	case "drained":
		return 2
	case "dead":
		return 3
	case "cordoned":
		return 4
	}
	return 0
}

// policyNodes exposes the union of live shards' workers — filtered to each
// device's current home — as one federation node set.
func (rt *Router) policyNodes() []policy.Node {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var nodes []policy.Node
	for _, name := range rt.order {
		sh := rt.shards[name]
		if !sh.state.serving() && sh.state != shardDraining {
			continue
		}
		for _, n := range sh.gw.PolicyNodes() {
			if rt.homes[n.Device] == name {
				nodes = append(nodes, n)
			}
		}
	}
	return nodes
}

// VirtualNow is the fleet's virtual clock: the maximum shard clock across
// serving and draining shards (dead shards' frozen clocks are ignored).
func (rt *Router) VirtualNow() float64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	max := 0.0
	for _, name := range rt.order {
		sh := rt.shards[name]
		if !sh.state.serving() && sh.state != shardDraining {
			continue
		}
		if v := sh.gw.VirtualNow(); v > max {
			max = v
		}
	}
	return max
}

// SyncPolicies runs one cross-shard federation pass synchronously:
// checkpoint every live worker fleet-wide, merge compatibility groups, and
// warm-start blank engines — the cluster's learning plane in one call.
func (rt *Router) SyncPolicies() (policy.Report, error) {
	if rt.closed.Load() {
		return policy.Report{}, serve.ErrClosed
	}
	if rt.syncer == nil {
		return policy.Report{}, errors.New("router: no checkpoint store configured")
	}
	return rt.syncer.SyncOnce(), nil
}

// MaybeSyncPolicies runs one cross-shard federation pass when
// cfg.PolicySync.Interval of virtual time has passed since the last one; the
// load loop calls it with VirtualNow. It reports whether a pass ran; a closed
// router or one without a checkpoint store never runs one.
func (rt *Router) MaybeSyncPolicies(now float64) bool {
	if rt.syncer == nil || rt.closed.Load() {
		return false
	}
	_, ran := rt.syncer.MaybeTick(now)
	return ran
}

// Shutdown stops admission, lets the dispatcher drain the tenant queues
// (queued requests still route and execute; shard admission and deadline
// rules still apply) until nothing is queued or in flight, stops the
// dispatcher, then gracefully shuts down every still-healthy shard — which
// drains shard queues, waits out the completions still running on their
// workers and persists final checkpoints. The context bounds the whole drain.
func (rt *Router) Shutdown(ctx context.Context) error {
	if !rt.closed.CompareAndSwap(false, true) {
		return serve.ErrClosed
	}

	// Quiet means: tenant queues empty and nothing in flight. Completions
	// requeue failovers before dropping the in-flight gauge, so this check
	// cannot miss work in motion.
	for rt.drr.queued.Load() != 0 || rt.inflight.Load() != 0 {
		rt.wakeUp()
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: drain interrupted: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	close(rt.stopc)
	rt.dispWG.Wait()

	rt.mu.Lock()
	var toClose []*shard
	for _, name := range rt.order {
		if sh := rt.shards[name]; sh.state.serving() {
			sh.state = shardDrained
			toClose = append(toClose, sh)
		}
	}
	rt.mu.Unlock()

	var errs []error
	for _, sh := range toClose {
		if err := sh.gw.Shutdown(ctx); err != nil && !errors.Is(err, serve.ErrClosed) {
			errs = append(errs, fmt.Errorf("router: shard %s: %w", sh.name, err))
		}
	}
	return errors.Join(errs...)
}
