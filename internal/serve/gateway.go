package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/fault"
	"autoscale/internal/obs"
	"autoscale/internal/policy"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
	"autoscale/internal/trace"
	"autoscale/internal/tracez"
)

// Gateway serves inference requests against a fleet of per-device engines,
// one serving lane per device. It is safe for concurrent use by any number
// of clients.
type Gateway struct {
	cfg Config
	met *metrics.Registry
	rr  atomic.Uint64

	// activeLanes bounds how many worker lanes (in registration order)
	// unpinned requests route to; 0 or >= len(workers) means all. The
	// capacity planner's worker-pool actuator: deactivated lanes drain what
	// they hold and then idle, pinned requests still reach them.
	activeLanes atomic.Int64

	// mu guards closed and the worker set: AddBackend grows workers/byName
	// at runtime (the routing tier re-homes devices onto live shards), so
	// every reader snapshots under the read lock.
	mu       sync.RWMutex
	closed   bool
	workers  []*worker
	byName   map[string]*worker
	warm     map[string]uint64 // device -> checkpoint generation warm-started from
	killed   atomic.Bool       // crash semantics: workers reject instead of serve
	inflight sync.WaitGroup    // submissions between admission and enqueue (or inline serve)
	wg       sync.WaitGroup    // worker goroutines

	syncer *policy.Syncer // nil without cfg.Checkpoints; set once in New
}

// worker is one device's serving lane: a warm engine, a bounded queue and
// the goroutine that drains it. A request executes on whichever goroutine
// holds lane: the worker for queued requests, or a Do caller that found the
// lane idle (busy == 0) and serves its request on its own goroutine, with no
// handoff. Requests on one lane execute one at a time, queued ones in FIFO
// order, and an inline request never overtakes one admitted before it.
type worker struct {
	device      string
	engine      *core.Engine
	queue       chan *pending
	fallback    sim.Target
	hasFallback bool

	// busy counts the requests admitted to this lane and not yet answered:
	// enqueue raises it before the send, an inline Do claims it from 0, and
	// it drops before the response is delivered — so a sequential client
	// always finds its lane idle again — or when ShedOldest evicts a queued
	// request.
	busy atomic.Int64
	// lane is held while a request executes and across its delivery, so a
	// lane's responses leave in execution order, as they did when only the
	// worker executed; it owns every field below.
	lane sync.Mutex

	breakers  map[sim.Location]*breaker
	events    []fault.Event // scripted crash/corruption drills, time-ordered
	nextEvent int
	seq       uint64 // per-lane request sequence (trace + retry streams)

	// tbuf buffers this lane's trace records between batch flushes. It drains
	// to the shared writer when it fills, when the lane's queue runs empty
	// (so a synchronous client sees its record in the trace before its
	// response arrives), and when the worker exits.
	tbuf []trace.Record
}

// traceBatch bounds a worker's trace buffer: under sustained load records
// drain to the shared writer in batches of this size.
const traceBatch = 64

// breakerFor returns the worker's breaker for a remote site (nil when the
// resilience layer is off or the location is local).
func (w *worker) breakerFor(loc sim.Location) *breaker {
	if w.breakers == nil {
		return nil
	}
	return w.breakers[loc]
}

// anyBreakerNotClosed reports whether the worker is in degraded mode.
func (w *worker) anyBreakerNotClosed() bool {
	for _, b := range w.breakers {
		if b.state != breakerClosed {
			return true
		}
	}
	return false
}

// Sink takes a request's one terminal response in place of a channel. The
// gateway calls Deliver exactly once, on whichever goroutine terminates the
// request: the submitter for admission rejections, a worker otherwise. A
// Deliver on a worker holds up that lane, and must not wait for the gateway
// to stop (Shutdown and Kill wait for the workers). SubmitTo always
// enqueues, so a sink is never called on an inline serve.
type Sink interface {
	Deliver(Response)
}

// pending is one admitted request awaiting execution. Its terminal response
// goes to sink when one was supplied and onto resp otherwise.
type pending struct {
	req         Request
	resp        chan Response
	sink        Sink
	submittedAt time.Time
}

// deliver hands over the request's one terminal response. A sink-bound
// envelope belongs to the gateway alone, so it goes back to the pool here;
// no caller may touch p afterwards.
func (p *pending) deliver(r Response) {
	s := p.sink
	if s == nil {
		p.resp <- r
		return
	}
	p.req, p.sink = Request{}, nil
	pendingPool.Put(p)
	s.Deliver(r)
}

// New builds a gateway over the given backends and starts one worker per
// device. Backends need distinct device names and non-nil engines.
func New(backends []Backend, cfg Config) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, errors.New("serve: no backends")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Resilience = cfg.Resilience.withDefaults()
	g := &Gateway{
		cfg:    cfg,
		met:    metrics.New(),
		byName: make(map[string]*worker, len(backends)),
		warm:   make(map[string]uint64),
	}
	for _, b := range backends {
		w, err := g.newWorker(b)
		if err != nil {
			return nil, err
		}
		g.workers = append(g.workers, w)
		g.byName[b.Device] = w
	}
	// Warm-start before any worker goroutine runs, so a restarted device
	// resumes from its latest valid checkpoint (or the fleet's merged
	// policy) before it serves its first request.
	if cfg.Checkpoints != nil {
		for _, w := range g.workers {
			if gen, ok := warmStart(w, cfg.Checkpoints); ok {
				g.warm[w.device] = gen
			}
		}
		scfg := cfg.PolicySync
		if scfg.Unreachable == nil && cfg.Faults != nil {
			// Scripted sync partitions: the device serves traffic but the
			// syncer cannot reach it while its window holds.
			scfg.Unreachable = func(dev string) bool {
				return cfg.Faults.Partitioned(dev, g.VirtualNow())
			}
		}
		s, err := policy.NewSyncer(cfg.Checkpoints, g.PolicyNodes, scfg)
		if err != nil {
			return nil, fmt.Errorf("serve: policy sync: %w", err)
		}
		g.syncer = s
	}
	for _, w := range g.workers {
		g.wg.Add(1)
		go g.runWorker(w)
	}
	return g, nil
}

// newWorker validates one backend and builds its serving lane (queue,
// fallback target, fault drills, breakers). Callers hold g.mu or run before
// any worker goroutine exists.
func (g *Gateway) newWorker(b Backend) (*worker, error) {
	if b.Engine == nil {
		return nil, fmt.Errorf("serve: backend %q has nil engine", b.Device)
	}
	if b.Device == "" {
		return nil, errors.New("serve: backend with empty device name")
	}
	if _, dup := g.byName[b.Device]; dup {
		return nil, fmt.Errorf("serve: duplicate backend %q", b.Device)
	}
	w := &worker{
		device: b.Device,
		engine: b.Engine,
		queue:  make(chan *pending, g.cfg.queueDepth()),
	}
	// The failover target mirrors the sim's outage fallback: local CPU
	// at top frequency, FP32.
	if cpu := b.Engine.World.Device.Processor(soc.CPU); cpu != nil {
		w.fallback = sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}
		w.hasFallback = true
	}
	// Scripted faults: install the injector on the backend world (unless
	// the caller already wired one) and stage this device's one-shot
	// crash/corruption drills.
	if g.cfg.Faults != nil {
		if b.Engine.World.Faults == nil {
			b.Engine.World.Faults = g.cfg.Faults
		}
		w.events = g.cfg.Faults.Events(b.Device)
	}
	if g.cfg.Resilience.Enabled {
		w.breakers = map[sim.Location]*breaker{
			sim.Connected: newBreaker(b.Device, sim.Connected, g.cfg.Resilience, g.met, g.cfg.Recorder),
			sim.Cloud:     newBreaker(b.Device, sim.Cloud, g.cfg.Resilience, g.met, g.cfg.Recorder),
		}
	}
	return w, nil
}

// AddBackend grows the gateway with one more device lane at runtime — the
// routing tier re-homes a dead shard's devices onto survivors through this.
// The new worker warm-starts from the device's latest valid checkpoint (or
// the fleet's merged policy) exactly like a boot-time backend, then starts
// serving immediately. It fails on a closed gateway and on duplicate or
// invalid backends.
func (g *Gateway) AddBackend(b Backend) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	w, err := g.newWorker(b)
	if err != nil {
		return err
	}
	if g.cfg.Checkpoints != nil {
		if gen, ok := warmStart(w, g.cfg.Checkpoints); ok {
			g.warm[w.device] = gen
		}
	}
	g.workers = append(g.workers, w)
	g.byName[w.device] = w
	g.wg.Add(1)
	go g.runWorker(w)
	return nil
}

// Devices returns the served device names in sorted order.
func (g *Gateway) Devices() []string {
	g.mu.RLock()
	out := make([]string, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, w.device)
	}
	g.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Metrics exposes the live registry.
func (g *Gateway) Metrics() *metrics.Registry { return g.met }

// Tracer exposes the gateway's causal tracer — nil when tracing is off. It
// lights up the admin server's /traces endpoints.
func (g *Gateway) Tracer() *tracez.Tracer { return g.cfg.Tracer }

// Snapshot copies the current metrics, with the federation syncer's health
// in the Sync* fields.
func (g *Gateway) Snapshot() metrics.Snapshot {
	s := g.met.Snapshot()
	if g.syncer != nil {
		h := g.syncer.Health()
		s.SyncPasses = int64(h.Passes)
		s.SyncFailures = int64(h.Failures)
		s.SyncConsecutiveFailures = int64(h.ConsecutiveFailures)
		s.SyncLastError = h.LastError
	}
	return s
}

// Health samples each device engine's learning-health gauges (read-only;
// see core.Health). Keys are device names.
func (g *Gateway) Health() map[string]core.Health {
	ws := g.snapshotWorkers()
	out := make(map[string]core.Health, len(ws))
	for _, w := range ws {
		out[w.device] = w.engine.Health()
	}
	return out
}

// snapshotWorkers copies the current worker set under the read lock.
func (g *Gateway) snapshotWorkers() []*worker {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*worker(nil), g.workers...)
}

// VirtualNow returns the shard's virtual time: the maximum of its workers'
// engine clocks. The routing tier schedules shard-lifecycle drills (crash
// events) against this reading, so lifecycle is as deterministic as the
// execution it rides on.
func (g *Gateway) VirtualNow() float64 {
	var now float64
	for _, w := range g.snapshotWorkers() {
		if t := w.engine.Now(); t > now {
			now = t
		}
	}
	return now
}

// Closed reports whether Shutdown has begun.
func (g *Gateway) Closed() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.closed
}

func (g *Gateway) now() time.Time {
	if g.cfg.Clock != nil {
		return g.cfg.Clock()
	}
	return time.Now()
}

// Submit runs admission control on one request and, when admitted, enqueues
// it; it never blocks on a full queue. The returned channel (buffered,
// always delivered to exactly once) carries the terminal Response — shed and
// expired requests get an immediate rejection response rather than an
// execution. The error return is reserved for misuse (nil model) and a
// closed gateway.
func (g *Gateway) Submit(req Request) (<-chan Response, error) {
	p := &pending{req: req, resp: make(chan Response, 1)}
	if err := g.submit(p, false); err != nil {
		return nil, err
	}
	return p.resp, nil
}

// submit runs admission control on one pending request. On a nil error the
// request is guaranteed exactly one deliver — possibly before submit returns,
// so a sink-bound p is no longer the caller's; on an error (misuse, closed
// gateway) nothing was enqueued and nothing will be delivered, so a pooled
// pending can be recycled immediately. With inline set, a request whose lane
// is idle executes on the caller's goroutine before submit returns.
func (g *Gateway) submit(p *pending, inline bool) error {
	if p.req.Model == nil {
		return errors.New("serve: request needs a model")
	}
	now := g.now()
	// A dead-on-arrival request is never routed, so it does not advance the
	// unpinned rotation.
	doa := !p.req.Deadline.IsZero() && now.After(p.req.Deadline)
	var w *worker
	var err error
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrClosed
	}
	// inflight is raised before the closed check releases so Shutdown
	// cannot close the queues while this request is between admission and
	// enqueue, and Shutdown and Kill wait out an inline serve.
	g.inflight.Add(1)
	if !doa {
		w, err = g.pickLocked(p.req.Device, inline)
	}
	g.mu.RUnlock()
	defer g.inflight.Done()

	g.met.IncSubmitted()
	p.submittedAt = now

	// Standalone-gateway tracing: requests arriving without a trace handle
	// get one here, so the span tree starts at admission. Under the routing
	// tier requests already carry the handle the router started.
	if g.cfg.Tracer != nil && p.req.Trace == nil {
		p.req.Trace = g.cfg.Tracer.Start(p.req.Model.Name, p.req.Tenant, p.req.ArrivalS)
	}

	// A dead-on-arrival deadline is failed fast without touching a queue.
	if doa {
		g.met.IncExpired()
		p.req.Trace.Flag(tracez.FlagExpired)
		p.req.Trace.Finish("expired")
		p.deliver(Response{
			Status: StatusExpired, Err: ErrDeadlineExpired,
			SubmittedAt: now, DoneAt: now,
		})
		return nil
	}

	if err != nil {
		g.met.IncFailed()
		p.req.Trace.Flag(tracez.FlagFailed)
		p.req.Trace.Finish("failed")
		p.deliver(Response{Status: StatusFailed, Err: err, SubmittedAt: now, DoneAt: now})
		return nil
	}

	// Nothing queued and nothing running: no earlier request can be
	// overtaken, so the caller serves its own request.
	if inline && w.busy.CompareAndSwap(0, 1) {
		g.run(w, p)
		return nil
	}
	if g.enqueue(w, p) {
		return nil
	}
	if g.cfg.Shed == ShedOldest {
		// Evict the oldest queued request to make room; if a worker drained
		// the queue in between, the eviction simply frees nothing and the
		// retry below usually succeeds.
		select {
		case old := <-w.queue:
			g.met.QueueExit()
			w.busy.Add(-1)
			g.reject(old, w.device)
		default:
		}
		if g.enqueue(w, p) {
			return nil
		}
	}
	g.reject(p, w.device)
	return nil
}

// enqueue admits p to w's queue without blocking. The lane's busy count is
// raised before the send, so p is counted for as long as it is queued: the
// worker cannot answer it first, and no inline Do finds the lane idle
// meanwhile.
func (g *Gateway) enqueue(w *worker, p *pending) bool {
	w.busy.Add(1)
	select {
	case w.queue <- p:
		g.met.QueueEnter()
		return true
	default:
		w.busy.Add(-1)
		return false
	}
}

// reject sheds one request with a terminal response.
func (g *Gateway) reject(p *pending, device string) {
	g.met.IncShed()
	p.req.Trace.Flag(tracez.FlagShed)
	p.req.Trace.Finish("shed")
	p.deliver(Response{
		Status: StatusShed, Device: device, Err: ErrQueueFull,
		SubmittedAt: p.submittedAt, DoneAt: g.now(),
	})
}

// pickLocked routes a request: a named device directly, otherwise the
// least-loaded queue with a rotating tiebreak. With preferIdle (the inline
// Do path) an unpinned request first takes the first lane in rotating order
// with nothing queued or running, so concurrent closed-loop clients spread
// over idle lanes instead of queueing behind each other. Caller holds g.mu,
// so concurrent AddBackend calls cannot tear the worker set under it.
func (g *Gateway) pickLocked(device string, preferIdle bool) (*worker, error) {
	if device != "" {
		w, ok := g.byName[device]
		if !ok {
			names := make([]string, 0, len(g.workers))
			for _, w := range g.workers {
				names = append(names, w.device)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("%w: %q (serving %v)", ErrUnknownDevice, device, names)
		}
		return w, nil
	}
	lanes := g.activeWorkersLocked()
	offset := int(g.rr.Add(1))
	if preferIdle {
		for i := range lanes {
			if w := lanes[(offset+i)%len(lanes)]; w.busy.Load() == 0 {
				return w, nil
			}
		}
	}
	best := lanes[offset%len(lanes)]
	for i := 1; i < len(lanes); i++ {
		w := lanes[(offset+i)%len(lanes)]
		if len(w.queue) < len(best.queue) {
			best = w
		}
	}
	return best, nil
}

// activeWorkersLocked returns the lanes unpinned routing may use: the first
// ActiveLanes workers in registration order. Caller holds g.mu.
func (g *Gateway) activeWorkersLocked() []*worker {
	n := int(g.activeLanes.Load())
	if n <= 0 || n >= len(g.workers) {
		return g.workers
	}
	return g.workers[:n]
}

// SetActiveLanes resizes the worker pool unpinned requests route over to the
// first n lanes in registration order, clamped to [1, lane count]; n <= 0
// restores the full pool. Deactivated lanes finish what they already queued
// (never mid-request preemption) and pinned requests still reach them.
// Returns the effective active-lane count.
func (g *Gateway) SetActiveLanes(n int) int {
	g.mu.RLock()
	total := len(g.workers)
	g.mu.RUnlock()
	if n <= 0 || n > total {
		n = total
	}
	g.activeLanes.Store(int64(n))
	return n
}

// ActiveLanes returns the current unpinned-routing pool size.
func (g *Gateway) ActiveLanes() int {
	g.mu.RLock()
	total := len(g.workers)
	g.mu.RUnlock()
	n := int(g.activeLanes.Load())
	if n <= 0 || n > total {
		return total
	}
	return n
}

// LaneCount returns the total number of worker lanes (active or not).
func (g *Gateway) LaneCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.workers)
}

// MinLaneClock returns the smallest virtual clock among active lanes — the
// earliest moment a new unpinned request could start executing. Against an
// arrival stamp this estimates the backlog the routing tier's per-class
// admission gates compare to their wait bounds.
func (g *Gateway) MinLaneClock() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	lanes := g.activeWorkersLocked()
	min := math.Inf(1)
	for _, w := range lanes {
		if t := w.engine.Now(); t < min {
			min = t
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// SubmitTo is Submit with the terminal response handed to sink instead of a
// channel: no per-request channel, no goroutine parked on one, and the
// envelope is recycled. On an error sink is never called.
func (g *Gateway) SubmitTo(req Request, sink Sink) error {
	p := pendingPool.Get().(*pending)
	p.req, p.sink = req, sink
	if err := g.submit(p, false); err != nil {
		p.req, p.sink = Request{}, nil
		pendingPool.Put(p)
		return err
	}
	return nil
}

// pendingPool recycles pending envelopes (and their one-shot response
// channels) for the Do and SubmitTo paths. A pending receives exactly one
// deliver: after Do drains resp the channel is empty, and a sink-bound
// envelope never uses it, so either way the envelope is safe to reuse.
var pendingPool = sync.Pool{
	New: func() any { return &pending{resp: make(chan Response, 1)} },
}

// Do submits one request and waits for its response — the synchronous
// convenience for closed-loop clients. When the request's lane has nothing
// queued and nothing running, Do executes it on the caller's goroutine; the
// lane's worker is neither woken nor handed a response. Otherwise the
// request queues like a Submit. The response's Err is also returned for
// non-served outcomes.
func (g *Gateway) Do(req Request) (Response, error) {
	p := pendingPool.Get().(*pending)
	p.req = req
	if err := g.submit(p, true); err != nil {
		p.req = Request{}
		pendingPool.Put(p)
		return Response{}, err
	}
	r := <-p.resp
	p.req = Request{} // drop model/conditions references before pooling
	pendingPool.Put(p)
	if r.Status != StatusServed {
		return r, r.Err
	}
	return r, nil
}

// runWorker drains one device queue until Shutdown closes it. On a killed
// gateway (crash semantics) queued requests are rejected instead of served:
// a crashed shard's queue does not survive, but every stranded request still
// gets a terminal failover-able response rather than silence.
func (g *Gateway) runWorker(w *worker) {
	defer g.wg.Done()
	for p := range w.queue {
		g.met.QueueExit()
		g.run(w, p)
	}
	// Queue closed: drain any trace records still buffered so Shutdown's
	// final writer flush covers the complete lane.
	w.lane.Lock()
	g.flushTrace(w)
	w.lane.Unlock()
}

// run executes one admitted request under the lane lock, on the worker or
// an inline Do caller.
func (g *Gateway) run(w *worker, p *pending) {
	w.lane.Lock()
	defer w.lane.Unlock()
	if g.killed.Load() {
		g.met.IncFailed()
		// The trace handle is deliberately left open: an ErrShardDown
		// rejection bounces back to the routing tier, which either fails
		// the request over (the same trace keeps accumulating spans on the
		// surviving shard) or terminates it with a final status.
		w.answer(p, Response{
			Status: StatusFailed, Device: w.device, Err: ErrShardDown,
			SubmittedAt: p.submittedAt, DoneAt: g.now(),
		})
		return
	}
	g.serveOne(w, p)
}

// answer delivers the terminal response of a request this lane admitted.
// The busy count drops first, so by the time a client holds its response
// the lane reads idle again.
func (w *worker) answer(p *pending, r Response) {
	w.busy.Add(-1)
	p.deliver(r)
}

// flushTrace drains the worker's buffered trace records into the shared
// writer in one locked batch append. Write errors stick in the writer and
// surface at Shutdown's final flush, exactly as per-record appends did.
func (g *Gateway) flushTrace(w *worker) {
	if len(w.tbuf) == 0 || g.cfg.Trace == nil {
		return
	}
	g.cfg.Trace.AppendBatch(w.tbuf)
	w.tbuf = w.tbuf[:0]
}

// serveOne executes one admitted request: scripted fault drills, deadline
// fast-fail, the engine step (with open breakers masked out of the action
// space), the resilient offload path (retries, hedging, breaker feedback),
// optional failover, metrics, trace, response. The caller holds w.lane.
//
// Phase accounting: the execution legs (execute, retry, hedge, failover) are
// stamped on the worker engine's virtual clock, so they are a pure function
// of the deterministic execution and flow into the trace; the queue and
// decide phases are wall-clock (scheduling reality, not simulation) and feed
// the registry's phase histograms only.
func (g *Gateway) serveOne(w *worker, p *pending) {
	start := g.now()
	wait := start.Sub(p.submittedAt).Seconds()
	act := p.req.Trace // nil-safe handle; nil when tracing is off
	act.SetShard(g.cfg.Name)
	// pt accumulates the deterministic virtual-clock legs (execute, retry,
	// hedge, failover) without allocating; the wall-clock queue and decide
	// phases feed the registry's histograms directly and stay out of the
	// trace.
	var pt obs.PhaseTotals
	w.seq++

	// Virtual wait: how far the serving lane's clock has run past the
	// request's virtual arrival — exact FCFS queueing delay on the engines'
	// deterministic time scale, and the observable the capacity planner's
	// M/M/c model is calibrated against.
	vwait := 0.0
	hasVWait := p.req.ArrivalS > 0
	if hasVWait {
		if lag := w.engine.Now() - p.req.ArrivalS; lag > 0 {
			vwait = lag
		} else {
			// The lane sat idle since its last request: fast-forward its
			// clock to the arrival, so service starts when the request
			// exists rather than at the lane's accumulated busy time.
			w.engine.AdvanceTo(p.req.ArrivalS)
		}
	}
	g.met.ObserveAdmission(wait, vwait, hasVWait)
	act.Span("queue", wait, w.device)

	base := Response{Device: w.device, SubmittedAt: p.submittedAt, WaitS: wait, VWaitS: vwait}

	// Fire any scripted crash/corruption drills whose virtual time has come
	// before this request observes the engine.
	g.applyFaultEvents(w)

	// A request that waited past its deadline is failed fast, not executed:
	// the client has already moved on, and running it would only burn
	// device energy on a dead answer.
	if !p.req.Deadline.IsZero() && start.After(p.req.Deadline) {
		g.met.IncExpired()
		base.Status, base.Err, base.DoneAt = StatusExpired, ErrDeadlineExpired, start
		act.Flag(tracez.FlagExpired)
		act.Finish("expired")
		w.answer(p, base)
		return
	}

	// Open breakers mask their remote sites out of the action space:
	// graceful degradation to local execution. Half-open breakers let the
	// policy probe the recovering site.
	var allow func(sim.Target) bool
	degraded := false
	if w.breakers != nil {
		vnow := w.engine.Now()
		cloudOK := w.breakers[sim.Cloud].allow(vnow)
		connOK := w.breakers[sim.Connected].allow(vnow)
		degraded = w.anyBreakerNotClosed()
		if !cloudOK || !connOK {
			allow = func(t sim.Target) bool {
				switch t.Location {
				case sim.Cloud:
					return cloudOK
				case sim.Connected:
					return connOK
				}
				return true
			}
		}
	}

	// The engine call advances the virtual clock by exactly the executed
	// inference (execute phase); its wall duration is the scheduling
	// overhead — observe, Q-lookup, bookkeeping — the paper reports as the
	// decision cost (the simulated inference itself costs no wall time).
	decideStart := time.Now()
	execStart := w.engine.Now()
	// Traced decide: the engine fills the trace's reusable provenance slot
	// with the exact Q-row, mask and exploration verdict behind this
	// selection. Capture draws nothing, so enabling tracing never changes
	// what the policy chooses.
	pr := act.Prov()
	d, err := w.engine.Step(nil, p.req.Model, p.req.Conditions, allow, pr)
	pt.Add(obs.PhaseExecuteIdx, w.engine.Now()-execStart)
	decideWallS := time.Since(decideStart).Seconds()
	g.met.ObservePhase(obs.PhaseDecide, decideWallS)
	if err != nil {
		g.met.IncFailed()
		base.Status, base.Err, base.DoneAt = StatusFailed, err, g.now()
		act.Span("decide", decideWallS, "")
		act.Flag(tracez.FlagFailed)
		act.Finish("failed")
		w.answer(p, base)
		return
	}
	if pr != nil {
		pr.State = string(d.State)
		pr.Action = d.Target.String()
		pr.ActionIdx = d.ActionIndex
	}
	act.Span("decide", decideWallS, d.Target.Location.String())

	// Gray degradation: the lane is scripted slow-but-alive, so the executed
	// inference stretches by the injected factor — the lane's clock advances
	// by the extra time, latency and QoS are re-judged — while nothing
	// errors and no breaker sees a failure. The factor is a pure function of
	// the virtual execution start, so replays stay byte-identical.
	if f := g.cfg.Faults.GrayFactor(w.device, execStart); f > 1 {
		extra := d.Measurement.LatencyS * (f - 1)
		w.engine.AdvanceTo(w.engine.Now() + extra)
		pt.Add(obs.PhaseExecuteIdx, extra)
		d.Measurement.LatencyS += extra
		d.QoSViolated = d.Measurement.LatencyS > d.QoSTargetS
	}

	// The sim reports an outage by executing the local fallback in place of
	// the chosen remote target.
	outage := d.Target.Location != sim.Local && d.Measurement.Target.Location == sim.Local
	if outage {
		g.met.IncOutage()
	}
	if wastedJ := d.Measurement.WastedJ; wastedJ > 0 {
		g.met.AddOutageWastedJ(wastedJ)
	}
	if br := w.breakerFor(d.Target.Location); br != nil && d.Target.Location != sim.Local {
		if outage {
			br.recordFailure(w.engine.Now())
		} else {
			br.recordSuccess(w.engine.Now())
		}
	}

	retries, recovered := 0, false
	if outage && g.cfg.Resilience.Enabled && g.cfg.Resilience.MaxRetries > 0 {
		retryStart := w.engine.Now()
		retries, recovered = g.retryOffload(w, p, &d)
		pt.Add(obs.PhaseRetryIdx, w.engine.Now()-retryStart)
	}

	hedged, hedgeWon := false, false
	if g.cfg.Resilience.Enabled && g.cfg.Resilience.Hedge && !outage &&
		d.Measurement.Target.Location != sim.Local && w.hasFallback {
		hedgeStart := w.engine.Now()
		hedged, hedgeWon = g.hedge(w, p, &d)
		pt.Add(obs.PhaseHedgeIdx, w.engine.Now()-hedgeStart)
	}

	retried := false
	if g.cfg.FailoverLocal && d.QoSViolated && w.hasFallback &&
		!outage && d.Measurement.Target != w.fallback {
		// Outage results already ran the fallback; everything else that
		// missed QoS gets one local re-execution — but only when the
		// remaining deadline budget actually fits the fallback's expected
		// latency; a retry that cannot finish in time is abandoned.
		if g.fitsDeadline(w, p, w.fallback, 0) {
			if meas, ferr := w.engine.World.ExecuteCtx(nil, p.req.Model, w.fallback, p.req.Conditions); ferr == nil {
				// The failover runs on the world's own clock, not the
				// engine's, so its leg is added by measured duration.
				pt.Add(obs.PhaseFailoverIdx, meas.LatencyS)
				// The superseded answer was already paid for: the request
				// carries both legs, and the first leg's energy is waste,
				// as retryOffload charges it.
				meas.LatencyS += d.Measurement.LatencyS
				meas.EnergyJ += d.Measurement.EnergyJ
				meas.WastedJ += d.Measurement.EnergyJ
				d.Measurement = meas
				d.QoSViolated = meas.LatencyS > d.QoSTargetS
				retried = true
				g.met.IncRetried()
			}
		} else if !p.req.Deadline.IsZero() {
			g.met.IncRetryAbandoned()
		}
	}

	// Span tree tail: the deterministic execution legs, emitted from the same
	// phase totals the trace record carries so span durations and the
	// record's phases field reconcile exactly for every serve.
	act.Span("execute", pt.Total(obs.PhaseExecuteIdx), d.Measurement.Target.Location.String())
	if v := pt.Total(obs.PhaseRetryIdx); v > 0 {
		act.Span("retry", v, "")
	}
	if v := pt.Total(obs.PhaseHedgeIdx); v > 0 {
		act.Span("hedge", v, "")
	}
	if v := pt.Total(obs.PhaseFailoverIdx); v > 0 {
		act.Span("failover", v, "")
	}
	if degraded {
		act.Flag(tracez.FlagDegraded)
	}
	if hedged {
		act.Flag(tracez.FlagHedged)
	}
	if retried {
		act.Flag(tracez.FlagFailover)
	}

	g.met.ObserveServed(metrics.ServedSample{
		QoSViolated: d.QoSViolated,
		LatencyS:    d.Measurement.LatencyS,
		EnergyJ:     d.Measurement.EnergyJ,
		Tenant:      p.req.Tenant,
		TenantRespS: vwait + d.Measurement.LatencyS,
		Target:      d.Measurement.Target.Location.String(),
		Device:      w.device,
		Phases:      pt,
	})

	if g.cfg.Trace != nil {
		rec := trace.FromDecision(int(w.seq), p.req.Model.Name, d)
		rec.Device = w.device
		rec.Shard = g.cfg.Name
		rec.Tenant = p.req.Tenant
		rec.Outage = outage
		rec.Retries = retries
		rec.Hedged = hedged
		rec.Degraded = degraded
		rec.VWaitS = vwait
		rec.Phases = pt.Durations()
		rec.TraceID = act.ID()
		// Buffer the record on the lane and drain in batches: when the lane
		// still has queued work the batch rides until it fills; an idle lane
		// flushes immediately so the record is visible before the response.
		w.tbuf = append(w.tbuf, rec)
		if len(w.tbuf) >= traceBatch || len(w.queue) == 0 {
			g.flushTrace(w)
		}
	}

	base.Status, base.Decision, base.Retried, base.Outage, base.DoneAt =
		StatusServed, d, retried, outage, g.now()
	base.OffloadRetries, base.RetryRecovered = retries, recovered
	base.Hedged, base.HedgeWon = hedged, hedgeWon
	base.Degraded = degraded
	act.Finish("served")
	w.answer(p, base)
}

// applyFaultEvents fires the worker's scripted one-shot drills whose
// virtual time has arrived: checkpoint corruption (damage the newest
// on-disk checkpoint) and worker crashes (drop the in-memory Q-table, then
// warm-start from the latest valid checkpoint — which, after a corruption
// drill, exercises the store's quarantine-and-fall-back path end to end).
func (g *Gateway) applyFaultEvents(w *worker) {
	for w.nextEvent < len(w.events) && w.events[w.nextEvent].AtS <= w.engine.Now() {
		ev := w.events[w.nextEvent]
		w.nextEvent++
		switch ev.Kind {
		case fault.KindCheckpointCorrupt:
			if c, ok := g.cfg.Checkpoints.(policy.Corrupter); ok {
				c.CorruptLatest(w.device)
				g.met.IncCorruptDrill()
			}
		case fault.KindWorkerCrash:
			if w.engine.Reset() == nil {
				g.met.IncWorkerCrash()
				if g.cfg.Checkpoints != nil {
					warmStart(w, g.cfg.Checkpoints)
				}
			}
		}
	}
}

// fitsDeadline reports whether the remaining wall budget fits overheadS
// plus the expected clean latency of executing the request on target t. A
// request without a deadline always fits.
func (g *Gateway) fitsDeadline(w *worker, p *pending, t sim.Target, overheadS float64) bool {
	if p.req.Deadline.IsZero() {
		return true
	}
	remaining := p.req.Deadline.Sub(g.now()).Seconds()
	if remaining <= 0 {
		return false
	}
	exp, err := w.engine.World.Expected(p.req.Model, t, p.req.Conditions)
	if err != nil {
		return false
	}
	return remaining >= overheadS+exp.LatencyS
}

// retryOffload re-drives a failed offload with exponential backoff and
// deterministic jitter from the request's named RNG stream, inside the
// request's deadline budget. Each attempt supersedes the previous answer:
// its latency and energy are charged to the episode as waste. On recovery
// the remote result replaces the outage fallback; on exhaustion the last
// fallback answer stands (graceful degradation). Every attempt feeds the
// site's circuit breaker.
func (g *Gateway) retryOffload(w *worker, p *pending, d *core.Decision) (retries int, recovered bool) {
	rc := g.cfg.Resilience
	world := w.engine.World
	br := w.breakerFor(d.Target.Location)
	cur := d.Measurement // current best answer (outage fallback)
	var wasteS, wasteJ float64

	for attempt := 1; attempt <= rc.MaxRetries; attempt++ {
		rctx := w.engine.StepContext("serve.retry", w.seq, uint64(attempt))
		backoff := retryBackoffS * math.Pow(2, float64(attempt-1))
		backoff += 0.5 * backoff * rctx.Stream("serve.retry.jitter").Float64()

		// Budget: the backoff plus a clean execution must fit in the
		// remaining deadline, or the retry is abandoned immediately
		// instead of burning another outage timeout.
		if !g.fitsDeadline(w, p, d.Target, backoff) {
			g.met.IncRetryAbandoned()
			break
		}

		rctx.Advance(backoff)
		retries++
		g.met.IncOffloadRetry()
		rmeas, err := world.ExecuteCtx(rctx, p.req.Model, d.Target, p.req.Conditions)
		if err != nil {
			break
		}
		// The previous answer is superseded: its cost becomes waste.
		wasteJ += cur.EnergyJ
		wasteS += cur.LatencyS + backoff
		cur = rmeas
		if rmeas.WastedJ > 0 {
			g.met.AddOutageWastedJ(rmeas.WastedJ)
		}
		if rmeas.Target.Location == sim.Local {
			// Failed again (outage fallback ran); keep backing off.
			if br != nil {
				br.recordFailure(w.engine.Now())
			}
			continue
		}
		if br != nil {
			br.recordSuccess(w.engine.Now())
		}
		recovered = true
		g.met.IncRetryRecovered()
		break
	}

	cur.LatencyS += wasteS
	cur.EnergyJ += wasteJ
	cur.WastedJ += wasteJ
	d.Measurement = cur
	d.QoSViolated = cur.LatencyS > d.QoSTargetS
	return retries, recovered
}

// hedge races a local leg against a slow remote answer: when the measured
// remote latency exceeds HedgeAfterS and the deadline budget fits the local
// leg, the gateway simulates having fired the fallback at the hedge point
// and takes whichever answer lands first, charging the loser's in-flight
// energy as waste.
func (g *Gateway) hedge(w *worker, p *pending, d *core.Decision) (hedged, won bool) {
	rc := g.cfg.Resilience
	remote := d.Measurement
	if remote.LatencyS <= rc.HedgeAfterS {
		return false, false
	}
	if !g.fitsDeadline(w, p, w.fallback, rc.HedgeAfterS) {
		return false, false
	}
	hctx := w.engine.StepContext("serve.hedge", w.seq)
	local, err := w.engine.World.ExecuteCtx(hctx, p.req.Model, w.fallback, p.req.Conditions)
	if err != nil {
		return false, false
	}
	g.met.IncHedge()
	hedgedLat := rc.HedgeAfterS + local.LatencyS
	if hedgedLat < remote.LatencyS {
		// Local leg wins: the remote answer is superseded; charge the
		// remote energy spent up to the hedged completion as waste.
		waste := remote.EnergyJ * (hedgedLat / remote.LatencyS)
		local.LatencyS = hedgedLat
		local.EnergyJ += waste
		local.WastedJ += waste
		d.Measurement = local
		d.QoSViolated = local.LatencyS > d.QoSTargetS
		g.met.IncHedgeWon()
		return true, true
	}
	// Remote answered first: the local leg ran (remote - hedge point) long
	// before cancellation; charge that fraction as waste.
	frac := (remote.LatencyS - rc.HedgeAfterS) / local.LatencyS
	if frac > 1 {
		frac = 1
	}
	waste := frac * local.EnergyJ
	d.Measurement.EnergyJ += waste
	d.Measurement.WastedJ += waste
	g.met.IncHedgeLost()
	return true, false
}

// Shutdown stops admission, drains every queue (queued requests still
// execute, deadline rules still apply), waits for the workers, flushes the
// audit trace (surfacing any write error — a dropped tail is a shutdown
// failure), then persists each engine's final Q-table to cfg.Checkpoints —
// exactly once per worker, guarded by the closed flag (a second Shutdown
// returns ErrClosed without re-flushing). The context bounds only the drain
// wait; on ctx expiry workers keep draining in the background but the trace
// flush and final checkpoints are skipped.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.closed = true
	g.mu.Unlock()

	// Wait out Submits that passed the closed check, then close the queues
	// — after this no send can race the close. The worker set is frozen once
	// closed is set (AddBackend refuses), so the snapshot is complete.
	workers := g.snapshotWorkers()
	g.inflight.Wait()
	for _, w := range workers {
		close(w.queue)
	}

	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}

	// Workers have exited: flush any degraded episode still open so the
	// degraded-seconds metric accounts shutdowns mid-storm.
	for _, w := range workers {
		for _, b := range w.breakers {
			b.closeOut(w.engine.Now())
		}
	}

	var errs []error
	// Flush the audit trail and surface any write failure: a trace whose
	// buffered tail was silently dropped would replay short, so a failed
	// final flush is a shutdown error, not a shrug.
	if g.cfg.Trace != nil {
		if err := g.cfg.Trace.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("serve: trace flush: %w", err))
		}
	}
	if g.cfg.Checkpoints != nil {
		for _, w := range workers {
			if err := checkpointWorker(w, g.cfg.Checkpoints, g.cfg.PolicySync); err != nil {
				errs = append(errs, fmt.Errorf("serve: checkpoint %s: %w", w.device, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Kill stops the gateway with crash semantics: admission closes, every
// queued request is rejected with ErrShardDown instead of executing, and —
// unlike Shutdown — nothing is flushed: no trace flush, no final Q-table
// checkpoints. The routing tier uses it to simulate a shard process dying
// mid-traffic; whatever the last federation pass persisted is all the
// learning the shard leaves behind, which is exactly what re-homed devices
// warm-start from. A second Kill (or a Kill after Shutdown) returns
// ErrClosed.
func (g *Gateway) Kill() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.closed = true
	g.killed.Store(true)
	g.mu.Unlock()

	workers := g.snapshotWorkers()
	g.inflight.Wait()
	for _, w := range workers {
		close(w.queue)
	}
	g.wg.Wait()
	return nil
}
