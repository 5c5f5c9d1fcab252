// Package metrics is the serving gateway's runtime instrumentation: a
// registry of lock-cheap counters and log-linear histograms (internal/obs)
// every worker updates on the hot path, plus a torn-read-free Snapshot for
// the admin endpoint, tests, the CLI and operators.
//
// Consistency: every mutator holds the registry's snapshot lock in read
// (shared) mode — one uncontended atomic on the hot path — while Snapshot
// takes it exclusively, so a snapshot is a single consistent cut: no
// mutation is in flight while it copies, and cross-field invariants
// (Accounted <= Submitted, bucket sums matching counts) hold in every
// snapshot, not just at quiescence.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"

	"autoscale/internal/obs"
)

// Scheme returns the bucket ladder shared by the registry's histograms:
// log-linear from 1e-4 to ~104 with 8 sub-buckets per octave (≤ 12.5%
// relative quantile error). One ladder for seconds and joules keeps every
// snapshot mergeable with every other.
func Scheme() obs.BucketScheme { return obs.DefaultScheme() }

// HistogramSnapshot aliases the obs snapshot so existing callers keep their
// vocabulary.
type HistogramSnapshot = obs.HistogramSnapshot

// Registry accumulates gateway counters. The zero value is not usable; call
// New.
type Registry struct {
	// snapMu is the snapshot seqlock: mutators hold it shared, Snapshot
	// holds it exclusively. See the package comment.
	snapMu sync.RWMutex

	submitted     atomic.Int64
	served        atomic.Int64
	shed          atomic.Int64
	expired       atomic.Int64
	failed        atomic.Int64
	retried       atomic.Int64
	qosViolations atomic.Int64
	outages       atomic.Int64

	offloadRetries   atomic.Int64
	retriesRecovered atomic.Int64
	retriesAbandoned atomic.Int64
	hedges           atomic.Int64
	hedgesWon        atomic.Int64
	hedgesLost       atomic.Int64
	breakerOpens     atomic.Int64
	breakerHalfOpens atomic.Int64
	breakerCloses    atomic.Int64
	workerCrashes    atomic.Int64
	corruptDrills    atomic.Int64

	degradedSeconds atomicFloat
	outageWastedJ   atomicFloat

	queueDepth atomic.Int64
	queueMax   atomic.Int64

	latency *obs.Histogram
	wait    *obs.Histogram
	energy  *obs.Histogram
	vwait   *obs.Histogram
	// phases maps phase name -> histogram. Built complete at New and never
	// mutated after, so reads need no lock.
	phases map[string]*obs.Histogram

	mu        sync.Mutex
	byTarget  map[string]int64
	byDevice  map[string]int64
	byBreaker map[string]string
	// byTenant maps tenant -> virtual response-time histogram (vwait plus
	// execution latency), built lazily on first observation per tenant.
	byTenant map[string]*obs.Histogram
}

// New builds a registry over the shared Scheme ladder, with one phase
// histogram per canonical request phase.
func New() *Registry {
	r := &Registry{
		latency:   obs.NewHistogram(Scheme()),
		wait:      obs.NewHistogram(Scheme()),
		energy:    obs.NewHistogram(Scheme()),
		vwait:     obs.NewHistogram(Scheme()),
		phases:    make(map[string]*obs.Histogram),
		byTarget:  make(map[string]int64),
		byDevice:  make(map[string]int64),
		byBreaker: make(map[string]string),
		byTenant:  make(map[string]*obs.Histogram),
	}
	for _, p := range obs.Phases() {
		r.phases[p] = obs.NewHistogram(Scheme())
	}
	return r
}

// shared brackets one mutation in the snapshot seqlock's read side.
func (r *Registry) shared(fn func()) {
	r.snapMu.RLock()
	fn()
	r.snapMu.RUnlock()
}

// IncSubmitted counts one request entering admission control.
func (r *Registry) IncSubmitted() { r.shared(func() { r.submitted.Add(1) }) }

// IncShed counts one request rejected by admission control (full queue).
func (r *Registry) IncShed() { r.shared(func() { r.shed.Add(1) }) }

// IncExpired counts one request failed fast on a passed deadline.
func (r *Registry) IncExpired() { r.shared(func() { r.expired.Add(1) }) }

// IncFailed counts one request whose execution returned an error.
func (r *Registry) IncFailed() { r.shared(func() { r.failed.Add(1) }) }

// IncRetried counts one failover re-execution on the local fallback target.
func (r *Registry) IncRetried() { r.shared(func() { r.retried.Add(1) }) }

// IncOutage counts one simulated radio outage absorbed by the sim's local
// fallback.
func (r *Registry) IncOutage() { r.shared(func() { r.outages.Add(1) }) }

// IncOffloadRetry counts one deadline-budgeted re-offload after an outage.
func (r *Registry) IncOffloadRetry() { r.shared(func() { r.offloadRetries.Add(1) }) }

// IncRetryRecovered counts one offload retry that came back clean.
func (r *Registry) IncRetryRecovered() { r.shared(func() { r.retriesRecovered.Add(1) }) }

// IncRetryAbandoned counts one retry skipped because the remaining deadline
// could not fit the backoff plus the expected execution.
func (r *Registry) IncRetryAbandoned() { r.shared(func() { r.retriesAbandoned.Add(1) }) }

// IncHedge counts one hedged offload launched against a slow remote.
func (r *Registry) IncHedge() { r.shared(func() { r.hedges.Add(1) }) }

// IncHedgeWon counts one hedge whose local leg beat the remote.
func (r *Registry) IncHedgeWon() { r.shared(func() { r.hedgesWon.Add(1) }) }

// IncHedgeLost counts one hedge whose remote leg answered first.
func (r *Registry) IncHedgeLost() { r.shared(func() { r.hedgesLost.Add(1) }) }

// IncBreakerOpen counts one circuit breaker tripping closed->open.
func (r *Registry) IncBreakerOpen() { r.shared(func() { r.breakerOpens.Add(1) }) }

// IncBreakerHalfOpen counts one breaker admitting a recovery probe.
func (r *Registry) IncBreakerHalfOpen() { r.shared(func() { r.breakerHalfOpens.Add(1) }) }

// IncBreakerClose counts one breaker closing after successful probes.
func (r *Registry) IncBreakerClose() { r.shared(func() { r.breakerCloses.Add(1) }) }

// IncWorkerCrash counts one scripted worker-crash drill.
func (r *Registry) IncWorkerCrash() { r.shared(func() { r.workerCrashes.Add(1) }) }

// IncCorruptDrill counts one scripted checkpoint-corruption drill.
func (r *Registry) IncCorruptDrill() { r.shared(func() { r.corruptDrills.Add(1) }) }

// AddDegradedSeconds accumulates wall time a worker spent with at least one
// breaker open (serving degraded, remote targets masked).
func (r *Registry) AddDegradedSeconds(s float64) { r.shared(func() { r.degradedSeconds.Add(s) }) }

// AddOutageWastedJ accumulates energy burned on failed offload attempts.
func (r *Registry) AddOutageWastedJ(j float64) { r.shared(func() { r.outageWastedJ.Add(j) }) }

// SetBreakerState records a breaker's current state under its label
// (e.g. "phone-0/cloud" -> "open").
func (r *Registry) SetBreakerState(label, state string) {
	r.shared(func() {
		r.mu.Lock()
		r.byBreaker[label] = state
		r.mu.Unlock()
	})
}

// QueueEnter bumps the aggregate queue-depth gauge and its high watermark.
func (r *Registry) QueueEnter() {
	r.shared(func() {
		d := r.queueDepth.Add(1)
		for {
			max := r.queueMax.Load()
			if d <= max || r.queueMax.CompareAndSwap(max, d) {
				return
			}
		}
	})
}

// QueueExit drops the aggregate queue-depth gauge.
func (r *Registry) QueueExit() { r.shared(func() { r.queueDepth.Add(-1) }) }

// QueueDepth returns the current aggregate queue depth.
func (r *Registry) QueueDepth() int64 { return r.queueDepth.Load() }

// ObservePhase records one phase duration (seconds) into that phase's
// histogram. Unknown phases are dropped — the phase set is the obs package's
// canonical list, fixed at New.
func (r *Registry) ObservePhase(phase string, s float64) {
	h, ok := r.phases[phase]
	if !ok {
		return
	}
	r.shared(func() { h.Observe(s) })
}

// ObserveAdmission batches the per-request admission observations — queue
// wait into both the wait and queue-phase histograms, plus the virtual wait
// when the request carried an arrival stamp — under one shared bracket of
// the snapshot seqlock.
func (r *Registry) ObserveAdmission(waitS, vwaitS float64, hasVWait bool) {
	r.shared(func() {
		r.wait.Observe(waitS)
		if h, ok := r.phases[obs.PhaseQueue]; ok {
			h.Observe(waitS)
		}
		if hasVWait {
			r.vwait.Observe(vwaitS)
		}
	})
}

// ServedSample batches every observation the gateway records when a request
// completes service, so the hot path crosses the snapshot seqlock once at
// the tail instead of once per metric.
type ServedSample struct {
	QoSViolated bool
	LatencyS    float64
	EnergyJ     float64
	// Tenant, when non-empty, records TenantRespS (virtual wait plus
	// execution latency) into the tenant's response-time histogram.
	Tenant      string
	TenantRespS float64
	// Target and Device label the execution for the per-target and
	// per-device counters.
	Target string
	Device string
	// Phases feeds each non-zero phase total into its phase histogram.
	Phases obs.PhaseTotals
}

// ObserveServed records one served request as a single batched mutation:
// the served and QoS-violation counters, the latency, energy, tenant and
// phase histograms, and the per-target and per-device counts, in one
// consistent cut relative to Snapshot.
func (r *Registry) ObserveServed(s ServedSample) {
	r.shared(func() {
		r.served.Add(1)
		if s.QoSViolated {
			r.qosViolations.Add(1)
		}
		r.latency.Observe(s.LatencyS)
		r.energy.Observe(s.EnergyJ)
		if s.Tenant != "" {
			r.mu.Lock()
			h, ok := r.byTenant[s.Tenant]
			if !ok {
				h = obs.NewHistogram(Scheme())
				r.byTenant[s.Tenant] = h
			}
			r.mu.Unlock()
			h.Observe(s.TenantRespS)
		}
		r.mu.Lock()
		r.byTarget[s.Target]++
		r.byDevice[s.Device]++
		r.mu.Unlock()
		s.Phases.ForEach(func(phase string, durS float64) {
			if h, ok := r.phases[phase]; ok {
				h.Observe(durS)
			}
		})
	})
}

// Snapshot is a point-in-time copy of the registry, taken as one consistent
// cut (see the package comment).
type Snapshot struct {
	Submitted     int64
	Served        int64
	Shed          int64
	Expired       int64
	Failed        int64
	Retried       int64
	QoSViolations int64
	Outages       int64

	// Resilience counters: the retry/hedge/breaker machinery.
	OffloadRetries   int64
	RetriesRecovered int64
	RetriesAbandoned int64
	Hedges           int64
	HedgesWon        int64
	HedgesLost       int64
	BreakerOpens     int64
	BreakerHalfOpens int64
	BreakerCloses    int64
	WorkerCrashes    int64
	CorruptDrills    int64
	DegradedSeconds  float64
	OutageWastedJ    float64

	QueueDepth    int64
	QueueMaxDepth int64

	// Policy-sync failure state: total passes, failed passes, failed passes
	// since the last clean one (the health-endpoint alarm signal), and the
	// most recent failure message. The registry never records these: the
	// owning front copies them from its federation syncer's health.
	SyncPasses              int64
	SyncFailures            int64
	SyncConsecutiveFailures int64
	SyncLastError           string

	Latency HistogramSnapshot
	Wait    HistogramSnapshot
	Energy  HistogramSnapshot
	// VWait is the virtual queue-wait histogram (arrival-stamped requests
	// only; see serve.Request.ArrivalS).
	VWait HistogramSnapshot
	// Phases holds one histogram per request phase that recorded at least
	// one observation (obs.Phases names the full set).
	Phases map[string]HistogramSnapshot

	// ByTarget counts executions per execution-location label; ByDevice per
	// gateway worker; ByBreaker holds each breaker's last recorded state.
	ByTarget  map[string]int64
	ByDevice  map[string]int64
	ByBreaker map[string]string
	// ByTenant holds one virtual response-time histogram per tenant that
	// served at least one request.
	ByTenant map[string]HistogramSnapshot
}

// Accounted returns the number of requests with a terminal outcome.
func (s Snapshot) Accounted() int64 { return s.Served + s.Shed + s.Expired + s.Failed }

// Snapshot copies the registry as one consistent cut: it excludes every
// mutator for the duration of the copy.
func (r *Registry) Snapshot() Snapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	s := Snapshot{
		Submitted:     r.submitted.Load(),
		Served:        r.served.Load(),
		Shed:          r.shed.Load(),
		Expired:       r.expired.Load(),
		Failed:        r.failed.Load(),
		Retried:       r.retried.Load(),
		QoSViolations: r.qosViolations.Load(),
		Outages:       r.outages.Load(),

		OffloadRetries:   r.offloadRetries.Load(),
		RetriesRecovered: r.retriesRecovered.Load(),
		RetriesAbandoned: r.retriesAbandoned.Load(),
		Hedges:           r.hedges.Load(),
		HedgesWon:        r.hedgesWon.Load(),
		HedgesLost:       r.hedgesLost.Load(),
		BreakerOpens:     r.breakerOpens.Load(),
		BreakerHalfOpens: r.breakerHalfOpens.Load(),
		BreakerCloses:    r.breakerCloses.Load(),
		WorkerCrashes:    r.workerCrashes.Load(),
		CorruptDrills:    r.corruptDrills.Load(),
		DegradedSeconds:  r.degradedSeconds.Load(),
		OutageWastedJ:    r.outageWastedJ.Load(),

		QueueDepth:    r.queueDepth.Load(),
		QueueMaxDepth: r.queueMax.Load(),

		Latency:   r.latency.Snapshot(),
		Wait:      r.wait.Snapshot(),
		Energy:    r.energy.Snapshot(),
		VWait:     r.vwait.Snapshot(),
		Phases:    make(map[string]HistogramSnapshot),
		ByTarget:  make(map[string]int64),
		ByDevice:  make(map[string]int64),
		ByBreaker: make(map[string]string),
		ByTenant:  make(map[string]HistogramSnapshot),
	}
	for p, h := range r.phases {
		if hs := h.Snapshot(); hs.Count > 0 {
			s.Phases[p] = hs
		}
	}
	// No mutator is in flight (they all hold snapMu shared), so locking mu
	// here is belt-and-braces for the map copies.
	r.mu.Lock()
	for k, v := range r.byTarget {
		s.ByTarget[k] = v
	}
	for k, v := range r.byDevice {
		s.ByDevice[k] = v
	}
	for k, v := range r.byBreaker {
		s.ByBreaker[k] = v
	}
	for t, h := range r.byTenant {
		s.ByTenant[t] = h.Snapshot()
	}
	r.mu.Unlock()
	return s
}

// Merge folds any number of snapshots into one fleet-wide view — the
// routing tier's merged registry across gateway shards. Counters and gauges
// sum; histograms merge bucket-wise (every registry shares the Scheme
// ladder, so merging cannot fail across gateways; a foreign-scheme snapshot
// keeps the accumulated histogram). Merging a zero-valued or empty snapshot
// is an identity operation in any operand position, and same-scheme merges
// are commutative. QueueMaxDepth sums the per-shard watermarks, which
// upper-bounds the (unknowable) aggregate watermark. Label maps union with
// summed counts; breaker labels are device-scoped and devices are unique
// across shards, so states never collide.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Phases:    make(map[string]HistogramSnapshot),
		ByTarget:  make(map[string]int64),
		ByDevice:  make(map[string]int64),
		ByBreaker: make(map[string]string),
		ByTenant:  make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		out.Submitted += s.Submitted
		out.Served += s.Served
		out.Shed += s.Shed
		out.Expired += s.Expired
		out.Failed += s.Failed
		out.Retried += s.Retried
		out.QoSViolations += s.QoSViolations
		out.Outages += s.Outages
		out.OffloadRetries += s.OffloadRetries
		out.RetriesRecovered += s.RetriesRecovered
		out.RetriesAbandoned += s.RetriesAbandoned
		out.Hedges += s.Hedges
		out.HedgesWon += s.HedgesWon
		out.HedgesLost += s.HedgesLost
		out.BreakerOpens += s.BreakerOpens
		out.BreakerHalfOpens += s.BreakerHalfOpens
		out.BreakerCloses += s.BreakerCloses
		out.WorkerCrashes += s.WorkerCrashes
		out.CorruptDrills += s.CorruptDrills
		out.DegradedSeconds += s.DegradedSeconds
		out.OutageWastedJ += s.OutageWastedJ
		out.QueueDepth += s.QueueDepth
		out.QueueMaxDepth += s.QueueMaxDepth
		out.SyncPasses += s.SyncPasses
		out.SyncFailures += s.SyncFailures
		// Consecutive failures merge by max: the sickest sync plane in the
		// fleet decides the alarm, and its error message rides along. Ties
		// take the lexicographically smallest non-empty error, so the
		// failure count and the message always come from the same shard
		// and the merge is order-independent.
		switch {
		case s.SyncConsecutiveFailures > out.SyncConsecutiveFailures:
			out.SyncConsecutiveFailures = s.SyncConsecutiveFailures
			out.SyncLastError = s.SyncLastError
		case s.SyncConsecutiveFailures == out.SyncConsecutiveFailures && s.SyncLastError != "" &&
			(out.SyncLastError == "" || s.SyncLastError < out.SyncLastError):
			out.SyncLastError = s.SyncLastError
		}
		out.Latency = mergeHist(out.Latency, s.Latency)
		out.Wait = mergeHist(out.Wait, s.Wait)
		out.Energy = mergeHist(out.Energy, s.Energy)
		out.VWait = mergeHist(out.VWait, s.VWait)
		for p, h := range s.Phases {
			if have, ok := out.Phases[p]; ok {
				out.Phases[p] = mergeHist(have, h)
			} else {
				out.Phases[p] = h
			}
		}
		for k, v := range s.ByTarget {
			out.ByTarget[k] += v
		}
		for k, v := range s.ByDevice {
			out.ByDevice[k] += v
		}
		for k, v := range s.ByBreaker {
			out.ByBreaker[k] = v
		}
		for t, h := range s.ByTenant {
			if have, ok := out.ByTenant[t]; ok {
				out.ByTenant[t] = mergeHist(have, h)
			} else {
				out.ByTenant[t] = h
			}
		}
	}
	return out
}

// mergeHist merges two histogram snapshots. An empty operand — a zero-valued
// snapshot (no scheme, no buckets) or one with no observations — is the
// merge identity on either side, so Merge(zero, s) == Merge(s, zero) == s;
// before this rule a zero first operand's empty scheme poisoned every later
// merge. On a genuine scheme mismatch the accumulated side wins (cannot
// happen between registries built by New, which share one ladder).
func mergeHist(a, b HistogramSnapshot) HistogramSnapshot {
	if b.Count == 0 && len(b.Counts) == 0 {
		return a
	}
	if a.Count == 0 && len(a.Counts) == 0 {
		return b
	}
	m, err := a.Merge(b)
	if err != nil {
		return a
	}
	return m
}

// atomicFloat is a float64 accumulated with compare-and-swap.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
