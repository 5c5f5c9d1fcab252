// Package tracez is the causal tracing plane: every traced request carries
// a trace ID and accumulates a span tree across router admission → DRR
// dispatch → gateway queue → decide → execute/offload → retries/hedges
// (a router failover re-dispatch stays on the same trace). The decide span
// carries decision provenance — the dense state index, per-action Q-values
// from the RCU snapshot, the breaker/lane mask applied, and whether the
// epsilon draw explored.
//
// Sampling is decided at Finish, after the request's fate is known:
// tail-based keep-all for interesting requests (deadline miss, shed,
// failover, hedge, failure, degraded mask), head sampling for the rest.
// The head draw comes from a named exec.Context stream keyed by the trace's
// sequence number, so a fixed-seed run — including the chaos soak and the
// storm/surge acceptance replays — keeps exactly the same traces on every
// replay. The tracer owns its own context root and never touches an
// engine's streams or clock, so enabling tracing cannot perturb a
// deterministic run.
//
// The kept-trace ring recycles evicted traces through a pool, so the traced
// steady state allocates only the per-request handle; the disabled path (a
// nil *Tracer and nil *Active) is branch-only and allocation-free.
package tracez

import (
	"sync"
	"sync/atomic"

	"autoscale/internal/exec"
	"autoscale/internal/obs"
)

// Keep-reason flags: any set bit makes a trace tail-kept regardless of the
// head-sampling draw.
const (
	// FlagExpired marks a deadline miss (dead on arrival or during service).
	FlagExpired uint8 = 1 << iota
	// FlagShed marks a load-shed rejection (queue full, admission gate).
	FlagShed
	// FlagFailed marks a failed response (outage, shard down, no viable action).
	FlagFailed
	// FlagFailover marks a cross-shard failover re-dispatch: the router
	// re-queued the request after its shard bounced it.
	FlagFailover
	// FlagHedged marks a hedged request (local hedge raced a slow remote).
	FlagHedged
	// FlagDegraded marks a breaker-degraded decision (the action mask was
	// narrowed by open breakers).
	FlagDegraded
)

// flagNames maps bit order to a stable name, for exports.
var flagNames = []string{"expired", "shed", "failed", "failover", "hedged", "degraded"}

// FlagNames renders a flag set as names in bit order.
func FlagNames(flags uint8) []string {
	var out []string
	for i, name := range flagNames {
		if flags&(1<<uint(i)) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// Span is one leg of a traced request's lifecycle. Durations are seconds;
// legs measured on the virtual clock (execute, retry, hedge) use
// virtual seconds and replay byte-identically, wall legs (admit, dispatch,
// queue, decide) use wall seconds.
type Span struct {
	Name   string  `json:"name"`
	DurS   float64 `json:"dur_s"`
	Detail string  `json:"detail,omitempty"`
}

// Trace is one completed request's span tree plus its decision provenance.
// Kept traces live in the tracer's ring until evicted.
type Trace struct {
	ID      uint64         `json:"id"`
	Model   string         `json:"model"`
	Tenant  string         `json:"tenant,omitempty"`
	Shard   string         `json:"shard,omitempty"`
	Status  string         `json:"status,omitempty"`
	StartS  float64        `json:"start_s"`
	Flags   uint8          `json:"flags,omitempty"`
	Sampled bool           `json:"head_sampled,omitempty"`
	HasProv bool           `json:"has_prov,omitempty"`
	Prov    obs.Provenance `json:"prov"`
	Spans   []Span         `json:"spans"`
}

// reset clears a trace for reuse, keeping slice capacity.
func (t *Trace) reset() {
	t.ID = 0
	t.Model, t.Tenant, t.Shard, t.Status = "", "", "", ""
	t.StartS = 0
	t.Flags = 0
	t.Sampled = false
	t.HasProv = false
	t.Prov.Reset()
	t.Spans = t.Spans[:0]
}

// Active is the live handle a traced request carries through the pipeline.
// All methods are nil-receiver safe, so untraced call sites pay one branch
// and zero allocations. An Active belongs to exactly one request lifecycle:
// ownership moves with the request (channel hand-offs provide the
// happens-before), and Finish must be called exactly once by whoever
// completes the request.
type Active struct {
	tr *Tracer
	t  *Trace
}

// ID returns the trace ID, 0 for an untraced request.
func (a *Active) ID() uint64 {
	if a == nil || a.t == nil {
		return 0
	}
	return a.t.ID
}

// Span appends one completed leg.
func (a *Active) Span(name string, durS float64, detail string) {
	if a == nil || a.t == nil {
		return
	}
	a.t.Spans = append(a.t.Spans, Span{Name: name, DurS: durS, Detail: detail})
}

// Flag marks a keep reason; any flag makes the trace tail-kept.
func (a *Active) Flag(f uint8) {
	if a == nil || a.t == nil {
		return
	}
	a.t.Flags |= f
}

// SetShard records the shard that served the request.
func (a *Active) SetShard(shard string) {
	if a == nil || a.t == nil {
		return
	}
	a.t.Shard = shard
}

// Prov returns the trace's provenance slot for in-place fill, nil for an
// untraced request. The slot's Q and Mask slices are reused across
// requests — truncate before appending. Calling Prov marks the trace as
// carrying provenance.
func (a *Active) Prov() *obs.Provenance {
	if a == nil || a.t == nil {
		return nil
	}
	a.t.HasProv = true
	return &a.t.Prov
}

// Finish completes the trace with a final status and hands it to the
// tracer's keep/drop decision. Repeated calls are no-ops.
func (a *Active) Finish(status string) {
	if a == nil || a.t == nil {
		return
	}
	t := a.t
	a.t = nil
	t.Status = status
	a.tr.finish(t)
}

// Config tunes a Tracer. Zero values select the defaults.
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1] for requests
	// with no keep flag. 0 keeps only flagged (interesting) traces.
	SampleRate float64
	// Ring is the kept-trace ring capacity (default 256).
	Ring int
	// Seed seeds the tracer's own exec.Context root for the sampling
	// stream (default 1). The tracer never draws from an engine's streams.
	Seed int64
}

func (c Config) ring() int {
	if c.Ring <= 0 {
		return 256
	}
	return c.Ring
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Tracer assigns trace IDs, decides keep/drop at Finish, and retains the
// last kept traces in a fixed ring. A nil *Tracer is a valid disabled
// tracer: Start returns nil and every downstream call is a cheap branch.
type Tracer struct {
	rate float64
	ctx  *exec.Context
	seq  atomic.Uint64

	started atomic.Uint64
	sampled atomic.Uint64
	kept    atomic.Uint64
	dropped atomic.Uint64

	// mu guards the ring and its traces. The lock is touched only on the
	// keep path and by admin readers — never on the drop path.
	mu   sync.Mutex
	ring []*Trace
	next uint64

	tracePool sync.Pool
}

// New builds a tracer. The sampling stream derives from the tracer's own
// context root, independent of every engine seed.
func New(cfg Config) *Tracer {
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Tracer{
		rate: rate,
		ctx:  exec.NewRoot(cfg.seed()).Child("tracez"),
		ring: make([]*Trace, cfg.ring()),
		tracePool: sync.Pool{New: func() any {
			return &Trace{}
		}},
	}
}

// Start opens a trace for one request. Returns nil on a nil tracer, so the
// handle can be threaded unconditionally.
func (tr *Tracer) Start(model, tenant string, arrivalS float64) *Active {
	if tr == nil {
		return nil
	}
	tr.started.Add(1)
	t := tr.tracePool.Get().(*Trace)
	t.reset()
	t.ID = tr.seq.Add(1)
	t.Model, t.Tenant, t.StartS = model, tenant, arrivalS
	return &Active{tr: tr, t: t}
}

// finish applies the sampling decision: tail-keep any flagged trace, head
// sample the rest on the named stream keyed by trace ID — a pure function
// of (tracer seed, ID), so replays keep identical trace sets.
func (tr *Tracer) finish(t *Trace) {
	keep := t.Flags != 0
	if !keep && tr.rate > 0 {
		r := tr.ctx.GetStream("sample", t.ID)
		if r.Float64() < tr.rate {
			keep = true
			t.Sampled = true
			tr.sampled.Add(1)
		}
		exec.PutStream(r)
	}
	if !keep {
		tr.dropped.Add(1)
		tr.tracePool.Put(t)
		return
	}
	tr.kept.Add(1)
	tr.mu.Lock()
	slot := tr.next % uint64(len(tr.ring))
	old := tr.ring[slot]
	tr.ring[slot] = t
	tr.next++
	tr.mu.Unlock()
	if old != nil {
		// Safe to recycle: readers only touch ring traces under mu, and
		// old left the ring before the unlock.
		tr.tracePool.Put(old)
	}
}

// Stats is the tracer's counter snapshot.
type Stats struct {
	Started uint64 `json:"started"`
	Sampled uint64 `json:"sampled"`
	Kept    uint64 `json:"kept"`
	Dropped uint64 `json:"dropped"`
	RingLen int    `json:"ring_len"`
	RingCap int    `json:"ring_cap"`
}

// Stats snapshots the counters; zero values on a nil tracer.
func (tr *Tracer) Stats() Stats {
	if tr == nil {
		return Stats{}
	}
	st := Stats{
		Started: tr.started.Load(),
		Sampled: tr.sampled.Load(),
		Kept:    tr.kept.Load(),
		Dropped: tr.dropped.Load(),
		RingCap: len(tr.ring),
	}
	tr.mu.Lock()
	if tr.next < uint64(len(tr.ring)) {
		st.RingLen = int(tr.next)
	} else {
		st.RingLen = len(tr.ring)
	}
	tr.mu.Unlock()
	return st
}

// AppendProm emits the autoscale_trace_* series. Nil-safe: a disabled
// tracer emits nothing, so scrape bodies are unchanged when tracing is off.
func (tr *Tracer) AppendProm(p *obs.Prom) {
	if tr == nil {
		return
	}
	st := tr.Stats()
	p.Counter("autoscale_trace_started_total", "Requests that carried a trace handle.", float64(st.Started))
	p.Counter("autoscale_trace_sampled_total", "Traces kept by the head-sampling draw.", float64(st.Sampled))
	p.Counter("autoscale_trace_kept_total", "Traces kept (head-sampled plus tail-flagged).", float64(st.Kept))
	p.Counter("autoscale_trace_dropped_total", "Completed traces dropped by sampling.", float64(st.Dropped))
	p.Gauge("autoscale_trace_ring_occupancy", "Kept traces currently in the ring.", float64(st.RingLen))
	p.Gauge("autoscale_trace_ring_capacity", "Kept-trace ring capacity.", float64(st.RingCap))
}

// snapshot deep-copies kept traces, newest last. id 0 selects all; a
// non-zero id selects that trace only. Copies detach from the ring's pooled
// storage so callers can serialize without holding mu.
func (tr *Tracer) snapshot(id uint64) []Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := uint64(len(tr.ring))
	count := tr.next
	if count > n {
		count = n
	}
	out := make([]Trace, 0, count)
	for i := uint64(0); i < count; i++ {
		// Oldest-first: the slot after next (mod n) is the oldest survivor.
		t := tr.ring[(tr.next-count+i)%n]
		if t == nil || (id != 0 && t.ID != id) {
			continue
		}
		cp := *t
		cp.Spans = append([]Span(nil), t.Spans...)
		cp.Prov.Q = append([]float64(nil), t.Prov.Q...)
		cp.Prov.Mask = append([]bool(nil), t.Prov.Mask...)
		out = append(out, cp)
	}
	return out
}

// Kept returns deep copies of every kept trace, oldest first.
func (tr *Tracer) Kept() []Trace { return tr.snapshot(0) }

// Lookup returns a deep copy of one kept trace by ID.
func (tr *Tracer) Lookup(id uint64) (Trace, bool) {
	ts := tr.snapshot(id)
	if len(ts) == 0 {
		return Trace{}, false
	}
	return ts[0], true
}
