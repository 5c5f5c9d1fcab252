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
	"autoscale/internal/fault"
	"autoscale/internal/obs"
	"autoscale/internal/policy"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/sim"
	"autoscale/internal/trace"
	"autoscale/internal/tracez"
)

// Gateway serves inference requests against a fleet of per-device engines,
// one serving lane per device. It is safe for concurrent use by any number
// of clients.
type Gateway struct {
	cfg Config
	// unrouted counts the outcomes of requests that never reach a lane:
	// dead-on-arrival expiries and unknown devices. Everything else is
	// counted in the registry of the lane that admitted the request.
	unrouted *metrics.Registry
	rr       atomic.Uint64

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
	inflight sync.WaitGroup    // submissions between admission and enqueue, and unserved claims
	wg       sync.WaitGroup    // worker goroutines

	// epoch is the one wall-clock reading, taken at construction; now()
	// offsets it by the monotonic time elapsed since.
	epoch time.Time
}

// worker is one device's serving lane: a warm engine, a bounded queue and
// the goroutine that drains it. A request executes on whichever goroutine
// holds lane: the worker for queued requests, or the holder of a Claim — a
// Do caller, or a router pump's own caller — that found the lane idle
// (busy == 0) and serves the request on its own goroutine, with no handoff.
// Requests on one lane execute one at a time, queued ones in FIFO order; a
// claimed request never overtakes one admitted before it, and none admitted
// after it overtakes it.
type worker struct {
	device string
	engine *core.Engine
	met    *metrics.Registry // this lane's own registry; see the metrics package
	queue  chan *pending

	// busy counts the requests admitted to this lane and not yet answered:
	// enqueue raises it before the send, a claim takes it from 0, and it
	// drops before the response is delivered — so a sequential client
	// always finds its lane idle again — or when ShedOldest evicts a queued
	// request.
	busy atomic.Int64
	// lane is held while a request executes and across its delivery, so a
	// lane's responses leave in execution order, as they did when only the
	// worker executed; a claim holds it from admission on. It owns every
	// field below.
	lane sync.Mutex

	events    []fault.Event // scripted crash/corruption drills, time-ordered
	nextEvent int
	seq       uint64 // per-lane request sequence (trace records)

	// tbuf buffers this lane's trace records between batch flushes. It drains
	// to the shared writer when it fills, when the lane's queue runs empty
	// (so a synchronous client sees its record in the trace before its
	// response arrives), and when the worker exits.
	tbuf []trace.Record
}

// traceBatch bounds a worker's trace buffer: under sustained load records
// drain to the shared writer in batches of this size.
const traceBatch = 64

// Sink takes a request's one terminal response in place of a channel. The
// gateway calls Deliver exactly once, on whichever goroutine terminates the
// request: the submitter for admission rejections, the lane's worker for a
// queued request, and the claim's holder, inside Claim.Serve, for a claimed
// one. The response is built in place in the gateway's pooled envelope and
// recycled when Deliver returns, so a sink copies what it keeps. A Deliver
// from a lane holds up that lane, and must not wait for the gateway to stop
// (Shutdown and Kill wait for the workers and for every claim).
type Sink interface {
	Deliver(*Response)
}

// pending is one admitted request awaiting execution. Whoever terminates it
// builds its response in resp, in place, and hands it over once: to sink
// when one was supplied, otherwise to the Do caller waiting on done.
type pending struct {
	req         Request
	resp        Response
	sink        Sink
	done        chan struct{} // wakes a Do whose request did not run inline
	inline      bool          // a Do serving its own claim: nobody waits on done
	submittedAt time.Time
}

// deliver hands over the request's one terminal response, now in p.resp. A
// sink-bound envelope belongs to the gateway alone, so it goes back to the
// pool here; no caller may touch p afterwards.
func (p *pending) deliver() {
	if s := p.sink; s != nil {
		s.Deliver(&p.resp)
		p.req, p.sink = Request{}, nil
		pendingPool.Put(p)
		return
	}
	if !p.inline {
		p.done <- struct{}{}
	}
}

// chanSink is Submit's sink: the response leaves on a buffered channel.
type chanSink chan Response

func (c chanSink) Deliver(r *Response) { c <- *r }

// New builds a gateway over the given backends and starts one worker per
// device. Backends need distinct device names and non-nil engines.
func New(backends []Backend, cfg Config) (*Gateway, error) {
	g, err := newGateway(backends, cfg)
	if err != nil {
		return nil, err
	}
	for _, w := range g.workers {
		g.wg.Add(1)
		go g.runWorker(w)
	}
	return g, nil
}

// newGateway is New without the worker goroutines: it validates the config,
// builds every lane and warm-starts it from the checkpoint store.
func newGateway(backends []Backend, cfg Config) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, errors.New("serve: no backends")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		unrouted: metrics.New(""),
		byName:   make(map[string]*worker, len(backends)),
		warm:     make(map[string]uint64),
		epoch:    time.Now(),
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
	}
	return g, nil
}

// newWorker validates one backend and builds its serving lane (queue, fault
// drills). Callers hold g.mu or run before any worker goroutine exists.
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
		met:    metrics.New(b.Device),
		queue:  make(chan *pending, g.cfg.queueDepth()),
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

// Tracer exposes the gateway's causal tracer — nil when tracing is off. It
// lights up the admin server's /traces endpoints.
func (g *Gateway) Tracer() *tracez.Tracer { return g.cfg.Tracer }

// Snapshot folds the unrouted registry and then each lane's into one
// snapshot, each under its own lock.
func (g *Gateway) Snapshot() metrics.Snapshot {
	var s metrics.Snapshot
	g.unrouted.AddTo(&s)
	g.mu.RLock()
	for _, w := range g.workers {
		w.met.AddTo(&s)
	}
	g.mu.RUnlock()
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

// now reads the gateway clock: cfg.Clock when set, otherwise the
// construction-time reading plus the monotonic time elapsed since, which
// costs a monotonic read instead of a wall-clock one. A served request reads
// it three times: at admission, at serve start and at decide end.
func (g *Gateway) now() time.Time {
	if g.cfg.Clock != nil {
		return g.cfg.Clock()
	}
	return g.epoch.Add(time.Since(g.epoch))
}

// Submit runs admission control on one request and, when admitted, enqueues
// it; it never blocks on a full queue. The returned channel (buffered,
// always delivered to exactly once) carries the terminal Response — shed and
// expired requests get an immediate rejection response rather than an
// execution. The error return is reserved for misuse (nil model) and a
// closed gateway.
func (g *Gateway) Submit(req Request) (<-chan Response, error) {
	ch := make(chan Response, 1)
	if err := g.SubmitTo(req, chanSink(ch)); err != nil {
		return nil, err
	}
	return ch, nil
}

// submit runs admission control on one pending request. On a nil error the
// request is guaranteed exactly one deliver — possibly before submit returns,
// so a sink-bound p is no longer the caller's; on an error (misuse, closed
// gateway) nothing was enqueued and nothing will be delivered, so a pooled
// pending can be recycled immediately. With claim set, a request whose lane
// is idle is claimed instead of queued: it is delivered only when the
// returned Claim is served.
func (g *Gateway) submit(p *pending, claim bool) (c Claim, err error) {
	if p.req.Model == nil {
		return Claim{}, errors.New("serve: request needs a model")
	}
	now := g.now()
	// A dead-on-arrival request is never routed, so it does not advance the
	// unpinned rotation.
	doa := !p.req.Deadline.IsZero() && now.After(p.req.Deadline)
	var w *worker
	var pickErr error
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return Claim{}, ErrClosed
	}
	// inflight is raised before the closed check releases so Shutdown
	// cannot close the queues while this request is between admission and
	// enqueue, and Shutdown and Kill wait out a claim until it is served.
	g.inflight.Add(1)
	if !doa {
		w, pickErr = g.pickLocked(p.req.Device, claim)
	}
	g.mu.RUnlock()
	defer func() {
		if c.w == nil {
			g.inflight.Done()
		}
	}()

	// The submission is counted where its outcome will be: on its lane, or
	// in the unrouted registry when it never gets one.
	met := g.unrouted
	if w != nil {
		met = w.met
	}
	met.IncSubmitted()
	p.submittedAt = now

	// Standalone-gateway tracing: requests arriving without a trace handle
	// get one here, so the span tree starts at admission. Under the routing
	// tier requests already carry the handle the router started.
	if g.cfg.Tracer != nil && p.req.Trace == nil {
		p.req.Trace = g.cfg.Tracer.Start(p.req.Model.Name, p.req.Tenant, p.req.ArrivalS)
	}

	// A dead-on-arrival deadline is failed fast without touching a queue.
	if doa {
		met.IncExpired()
		p.req.Trace.Flag(tracez.FlagExpired)
		p.req.Trace.Finish("expired")
		p.resp = Response{
			Status: StatusExpired, Err: ErrDeadlineExpired,
			SubmittedAt: now, DoneAt: now,
		}
		p.deliver()
		return Claim{}, nil
	}

	if pickErr != nil {
		met.IncFailed()
		p.req.Trace.Flag(tracez.FlagFailed)
		p.req.Trace.Finish("failed")
		p.resp = Response{Status: StatusFailed, Err: pickErr, SubmittedAt: now, DoneAt: now}
		p.deliver()
		return Claim{}, nil
	}

	if claim && w.claim() {
		return Claim{g: g, w: w, p: p}, nil
	}
	if g.enqueue(w, p) {
		return Claim{}, nil
	}
	if g.cfg.Shed == ShedOldest {
		// Evict the oldest queued request to make room; if a worker drained
		// the queue in between, the eviction simply frees nothing and the
		// retry below usually succeeds.
		select {
		case old := <-w.queue:
			w.met.QueueExit()
			w.busy.Add(-1)
			g.reject(w, old)
		default:
		}
		if g.enqueue(w, p) {
			return Claim{}, nil
		}
	}
	g.reject(w, p)
	return Claim{}, nil
}

// claim takes an idle lane for a request its caller will serve: busy from 0
// to 1 (nothing queued, nothing running) and then the lane mutex, held from
// here until the request is answered, so no request admitted to the lane
// later can run first. With busy at 0 the mutex is held only while a
// delivery finishes; a claim that meets one gives busy back, and the
// request queues.
func (w *worker) claim() bool {
	if !w.busy.CompareAndSwap(0, 1) {
		return false
	}
	if w.lane.TryLock() {
		return true
	}
	w.busy.Add(-1)
	return false
}

// Claim is a request admitted to an idle lane and not yet served: the lane's
// busy count and mutex and the gateway's in-flight count are held for it, so
// no request admitted to the lane after it runs first, and Shutdown and Kill
// wait until it is served. Its holder must Serve it exactly once, and soon:
// the lane serves nothing else meanwhile. The zero Claim holds nothing.
type Claim struct {
	g *Gateway
	w *worker
	p *pending
}

// Serve executes the claimed request on the calling goroutine and delivers
// its response before returning. Serving the zero Claim does nothing.
func (c Claim) Serve() {
	if c.w == nil {
		return
	}
	c.g.runLocked(c.w, c.p)
	c.w.lane.Unlock()
	c.g.inflight.Done()
}

// enqueue admits p to w's queue without blocking. The lane's busy count is
// raised before the send, so p is counted for as long as it is queued: the
// worker cannot answer it first, and no inline Do finds the lane idle
// meanwhile.
func (g *Gateway) enqueue(w *worker, p *pending) bool {
	w.busy.Add(1)
	select {
	case w.queue <- p:
		w.met.QueueEnter()
		return true
	default:
		w.busy.Add(-1)
		return false
	}
}

// reject sheds one request of w's with a terminal response.
func (g *Gateway) reject(w *worker, p *pending) {
	w.met.IncShed()
	p.req.Trace.Flag(tracez.FlagShed)
	p.req.Trace.Finish("shed")
	p.resp = Response{
		Status: StatusShed, Device: w.device, Err: ErrQueueFull,
		SubmittedAt: p.submittedAt, DoneAt: g.now(),
	}
	p.deliver()
}

// pickLocked routes a request: a named device directly, otherwise the
// least-loaded queue with a rotating tiebreak. With preferIdle (a claim) an
// unpinned request first takes the first lane in rotating order
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

// Busy returns the requests admitted to the gateway's lanes and not yet
// answered: queued, executing or claimed. A quiet gateway reads 0.
func (g *Gateway) Busy() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var n int64
	for _, w := range g.workers {
		n += w.busy.Load()
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
// envelope is recycled. An admitted request always queues, even on an idle
// lane. On an error sink is never called.
func (g *Gateway) SubmitTo(req Request, sink Sink) error {
	_, err := g.submitTo(req, sink, false)
	return err
}

// ClaimTo is SubmitTo for a caller that serves the request itself when its
// lane is idle: there the request is claimed instead of queued, and the
// caller must Serve the returned Claim — from any goroutine, once it holds
// nothing a Deliver may wait for. Otherwise the Claim is zero and the
// request queues or is rejected exactly as by SubmitTo. On an error sink is
// never called.
func (g *Gateway) ClaimTo(req Request, sink Sink) (Claim, error) {
	return g.submitTo(req, sink, true)
}

func (g *Gateway) submitTo(req Request, sink Sink, claim bool) (Claim, error) {
	p := pendingPool.Get().(*pending)
	p.req, p.sink = req, sink
	c, err := g.submit(p, claim)
	if err != nil {
		p.req, p.sink = Request{}, nil
		pendingPool.Put(p)
	}
	return c, err
}

// pendingPool recycles pending envelopes (and their one-shot wake-up
// channels) for the Do and SubmitTo paths. A pending receives exactly one
// deliver: after Do drains done the channel is empty, and a sink-bound
// envelope never uses it, so either way the envelope is safe to reuse.
var pendingPool = sync.Pool{
	New: func() any { return &pending{done: make(chan struct{}, 1)} },
}

// Do submits one request and waits for its response — the synchronous
// convenience for closed-loop clients. When the request's lane has nothing
// queued and nothing running, Do claims it and executes the request on the
// caller's goroutine; the lane's worker is neither woken nor handed a
// response. Otherwise the request queues like a Submit. The response's Err
// is also returned for non-served outcomes.
func (g *Gateway) Do(req Request) (resp Response, err error) {
	p := pendingPool.Get().(*pending)
	p.req = req
	c, err := g.submit(p, true)
	if err == nil {
		if c.w != nil {
			p.inline = true
			c.Serve()
		} else {
			<-p.done
		}
		resp = p.resp
		if resp.Status != StatusServed {
			err = resp.Err
		}
	}
	p.req, p.inline = Request{}, false // drop model/conditions references before pooling
	pendingPool.Put(p)
	return resp, err
}

// runWorker drains one device queue until Shutdown closes it. On a killed
// gateway (crash semantics) queued requests are rejected instead of served:
// a crashed shard's queue does not survive, but every stranded request still
// gets a terminal failover-able response rather than silence.
func (g *Gateway) runWorker(w *worker) {
	defer g.wg.Done()
	for p := range w.queue {
		w.met.QueueExit()
		w.lane.Lock()
		g.runLocked(w, p)
		w.lane.Unlock()
	}
	// Queue closed: drain any trace records still buffered so Shutdown's
	// final writer flush covers the complete lane.
	w.lane.Lock()
	g.flushTrace(w)
	w.lane.Unlock()
}

// runLocked executes one admitted request, on the worker or a claim's
// holder. The caller holds w.lane.
func (g *Gateway) runLocked(w *worker, p *pending) {
	if g.killed.Load() {
		w.met.IncFailed()
		// The trace handle is deliberately left open: an ErrShardDown
		// rejection bounces back to the routing tier, which either fails
		// the request over (the same trace keeps accumulating spans on the
		// surviving shard) or terminates it with a final status.
		p.resp = Response{
			Status: StatusFailed, Device: w.device, Err: ErrShardDown,
			SubmittedAt: p.submittedAt, DoneAt: g.now(),
		}
		w.answer(p)
		return
	}
	g.serveOne(w, p)
}

// answer delivers the terminal response, now in p.resp, of a request this
// lane admitted. The busy count drops first, so by the time a client holds
// its response the lane reads idle again.
func (w *worker) answer(p *pending) {
	w.busy.Add(-1)
	p.deliver()
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
// fast-fail, the engine step, metrics, trace, response. The caller holds
// w.lane.
//
// Phase accounting: the execute phase is stamped on the worker engine's
// virtual clock, so it is a pure function of the deterministic execution
// and flows into the trace; the queue and decide phases are on the gateway
// clock (scheduling reality, not simulation) and feed the registry's phase
// histograms and the causal trace's spans only. The queue phase runs from
// admission to serve start; the decide phase from serve start to decide
// end, the reading taken right after the engine step, which is also the
// response's DoneAt.
func (g *Gateway) serveOne(w *worker, p *pending) {
	start := g.now()
	wait := start.Sub(p.submittedAt).Seconds()
	act := p.req.Trace // nil-safe handle; nil when tracing is off
	act.SetShard(g.cfg.Name)
	// pt accumulates the deterministic virtual-clock execute phase
	// without allocating; the wall-clock queue and decide phases feed
	// the registry's histograms directly and stay out of the trace.
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
	w.met.ObserveAdmission(wait, vwait, hasVWait)
	act.Span("queue", wait, w.device)

	out := &p.resp
	*out = Response{Device: w.device, SubmittedAt: p.submittedAt, WaitS: wait, VWaitS: vwait}

	// Fire any scripted crash/corruption drills whose virtual time has come
	// before this request observes the engine.
	g.applyFaultEvents(w)

	// A request that waited past its deadline is failed fast, not executed:
	// the client has already moved on, and running it would only burn
	// device energy on a dead answer.
	if !p.req.Deadline.IsZero() && start.After(p.req.Deadline) {
		w.met.IncExpired()
		out.Status, out.Err, out.DoneAt = StatusExpired, ErrDeadlineExpired, start
		act.Flag(tracez.FlagExpired)
		act.Finish("expired")
		w.answer(p)
		return
	}

	// The engine call advances the virtual clock by exactly the executed
	// inference (execute phase); the decide phase, serve start to decide
	// end, is the scheduling overhead — admission bookkeeping, drills, the
	// deadline check, observe, Q-lookup — the paper reports as the decision
	// cost (the simulated inference itself costs no wall time).
	execStart := w.engine.Now()
	// Traced decide: the engine fills the trace's reusable provenance slot
	// with the exact Q-row, mask and exploration verdict behind this
	// selection. Capture draws nothing, so enabling tracing never changes
	// what the policy chooses.
	// The decision lands in the response in place.
	pr := act.Prov()
	var err error
	out.Decision, err = w.engine.Step(nil, p.req.Model, p.req.Conditions, pr)
	d := &out.Decision
	execS := w.engine.Now() - execStart
	done := g.now()
	decideS := done.Sub(start).Seconds()
	if err != nil {
		w.met.ObservePhase(obs.PhaseDecideIdx, decideS)
		w.met.IncFailed()
		out.Status, out.Err, out.DoneAt = StatusFailed, err, done
		act.Span("decide", decideS, "")
		act.Flag(tracez.FlagFailed)
		act.Finish("failed")
		w.answer(p)
		return
	}
	if pr != nil {
		pr.State = string(d.State)
		pr.Action = d.Target.String()
		pr.ActionIdx = d.ActionIndex
	}
	act.Span("decide", decideS, d.Target.Location.String())

	// Gray degradation: the lane is scripted slow-but-alive, so the executed
	// inference stretches by the injected factor — the lane's clock advances
	// by the extra time, latency and QoS are re-judged — while nothing
	// errors. The factor is a pure function of the virtual execution start,
	// so replays stay byte-identical.
	if f := g.cfg.Faults.GrayFactor(w.device, execStart); f > 1 {
		extra := d.Measurement.LatencyS * (f - 1)
		w.engine.AdvanceTo(w.engine.Now() + extra)
		execS += extra
		d.Measurement.LatencyS += extra
		d.QoSViolated = d.Measurement.LatencyS > d.QoSTargetS
	}

	// The sim reports an outage by executing the local fallback in place of
	// the chosen remote target.
	outage := d.Target.Location != sim.Local && d.Measurement.Target.Location == sim.Local
	if outage {
		w.met.IncOutage()
	}
	if wastedJ := d.Measurement.WastedJ; wastedJ > 0 {
		w.met.AddOutageWastedJ(wastedJ)
	}
	pt.Add(obs.PhaseExecuteIdx, execS)

	// Span tree tail: the deterministic execute leg, emitted from the same
	// phase totals the trace record carries so span durations and the
	// record's phases field reconcile exactly for every serve.
	act.Span("execute", pt.Total(obs.PhaseExecuteIdx), d.Measurement.Target.Location.String())

	w.met.ObserveServed(metrics.ServedSample{
		QoSViolated: d.QoSViolated,
		LatencyS:    d.Measurement.LatencyS,
		EnergyJ:     d.Measurement.EnergyJ,
		DecideS:     decideS,
		Tenant:      p.req.Tenant,
		TenantRespS: vwait + d.Measurement.LatencyS,
		Target:      d.Measurement.Target.Location,
		Phases:      pt,
	})

	if g.cfg.Trace != nil {
		rec := trace.FromDecision(int(w.seq), p.req.Model.Name, *d)
		rec.Device = w.device
		rec.Shard = g.cfg.Name
		rec.Tenant = p.req.Tenant
		rec.Outage = outage
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

	out.Status, out.Outage, out.DoneAt = StatusServed, outage, done
	act.Finish("served")
	w.answer(p)
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
				w.met.IncCorruptDrill()
			}
		case fault.KindWorkerCrash:
			if w.engine.Reset() == nil {
				w.met.IncWorkerCrash()
				if g.cfg.Checkpoints != nil {
					warmStart(w, g.cfg.Checkpoints)
				}
			}
		}
	}
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
