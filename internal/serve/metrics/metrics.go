// Package metrics is the serving gateway's runtime instrumentation: a
// registry of counters and log-linear histograms (internal/obs) that a
// serving lane updates on the hot path, read as a Snapshot by the admin
// endpoint, the fleet supervisor, tests, the CLI and operators.
//
// A registry is a Snapshot behind one mutex. Every mutator locks, updates
// plain fields and unlocks, so every read is a consistent cut by
// construction: cross-field invariants (Accounted <= Submitted, Served ==
// Latency.Count, bucket sums matching counts) hold in every cut, not just at
// quiescence.
//
// One fold rule, Snapshot.add, sums a snapshot into another field by field.
// Registry.Snapshot is an add into a zero value, Registry.AddTo is an add
// under the registry's lock, and Merge adds snapshots one after another.
//
// A gateway keeps one registry per lane, so two lanes serving at once never
// take the same lock, and one more for the outcomes that never reach a lane
// (dead-on-arrival expiries, unknown devices). Each request's submission and
// terminal outcome land in the same registry. A gateway snapshot folds its
// registries into one accumulator, one after another; the cuts are not
// simultaneous, but the invariants are sums of per-registry ones and so hold
// in the fold too.
package metrics

import (
	"sync"

	"autoscale/internal/obs"
)

// Registry accumulates gateway counters. The zero value is not usable; call
// New.
type Registry struct {
	mu sync.Mutex
	s  Snapshot
}

// New builds a registry whose histograms all use obs.DefaultScheme, one
// ladder for seconds and joules, so every snapshot adds to every other; it
// has one phase histogram per canonical request phase.
func New() *Registry {
	r := &Registry{s: empty()}
	for _, p := range obs.Phases() {
		r.s.Phases[p] = newHist()
	}
	return r
}

// newHist is an empty histogram on the ladder every registry shares.
func newHist() obs.HistogramSnapshot {
	scheme := obs.DefaultScheme()
	return obs.HistogramSnapshot{Scheme: scheme, Counts: make([]int64, scheme.NumBuckets())}
}

// empty is where every fold starts: the label maps made and the four fixed
// histograms laid out, so an idle registry reads like a busy one with no
// counts.
func empty() Snapshot {
	return Snapshot{
		Latency:   newHist(),
		Wait:      newHist(),
		Energy:    newHist(),
		VWait:     newHist(),
		Phases:    make(map[string]obs.HistogramSnapshot),
		ByTarget:  make(map[string]int64),
		ByDevice:  make(map[string]int64),
		ByBreaker: make(map[string]string),
		ByTenant:  make(map[string]obs.HistogramSnapshot),
	}
}

// count adds n to one counter of the registry.
func (r *Registry) count(c *int64, n int64) {
	r.mu.Lock()
	*c += n
	r.mu.Unlock()
}

// accrue adds v to one float accumulator of the registry.
func (r *Registry) accrue(f *float64, v float64) {
	r.mu.Lock()
	*f += v
	r.mu.Unlock()
}

// IncSubmitted counts one request entering admission control.
func (r *Registry) IncSubmitted() { r.count(&r.s.Submitted, 1) }

// IncShed counts one request rejected by admission control (full queue).
func (r *Registry) IncShed() { r.count(&r.s.Shed, 1) }

// IncExpired counts one request failed fast on a passed deadline.
func (r *Registry) IncExpired() { r.count(&r.s.Expired, 1) }

// IncFailed counts one request whose execution returned an error.
func (r *Registry) IncFailed() { r.count(&r.s.Failed, 1) }

// IncOutage counts one simulated radio outage absorbed by the sim's local
// fallback.
func (r *Registry) IncOutage() { r.count(&r.s.Outages, 1) }

// IncOffloadRetry counts one deadline-budgeted re-offload after an outage.
func (r *Registry) IncOffloadRetry() { r.count(&r.s.OffloadRetries, 1) }

// IncRetryRecovered counts one offload retry that came back clean.
func (r *Registry) IncRetryRecovered() { r.count(&r.s.RetriesRecovered, 1) }

// IncRetryAbandoned counts one retry skipped because the remaining deadline
// could not fit the backoff plus the expected execution.
func (r *Registry) IncRetryAbandoned() { r.count(&r.s.RetriesAbandoned, 1) }

// IncHedge counts one hedged offload launched against a slow remote.
func (r *Registry) IncHedge() { r.count(&r.s.Hedges, 1) }

// IncHedgeWon counts one hedge whose local leg beat the remote.
func (r *Registry) IncHedgeWon() { r.count(&r.s.HedgesWon, 1) }

// IncHedgeLost counts one hedge whose remote leg answered first.
func (r *Registry) IncHedgeLost() { r.count(&r.s.HedgesLost, 1) }

// IncBreakerOpen counts one circuit breaker tripping closed->open.
func (r *Registry) IncBreakerOpen() { r.count(&r.s.BreakerOpens, 1) }

// IncBreakerHalfOpen counts one breaker admitting a recovery probe.
func (r *Registry) IncBreakerHalfOpen() { r.count(&r.s.BreakerHalfOpens, 1) }

// IncBreakerClose counts one breaker closing after successful probes.
func (r *Registry) IncBreakerClose() { r.count(&r.s.BreakerCloses, 1) }

// IncWorkerCrash counts one scripted worker-crash drill.
func (r *Registry) IncWorkerCrash() { r.count(&r.s.WorkerCrashes, 1) }

// IncCorruptDrill counts one scripted checkpoint-corruption drill.
func (r *Registry) IncCorruptDrill() { r.count(&r.s.CorruptDrills, 1) }

// AddDegradedSeconds accumulates wall time a worker spent with at least one
// breaker open (serving degraded, remote targets masked).
func (r *Registry) AddDegradedSeconds(s float64) { r.accrue(&r.s.DegradedSeconds, s) }

// AddOutageWastedJ accumulates energy burned on failed offload attempts.
func (r *Registry) AddOutageWastedJ(j float64) { r.accrue(&r.s.OutageWastedJ, j) }

// SetBreakerState records a breaker's current state under its label
// (e.g. "phone-0/cloud" -> "open").
func (r *Registry) SetBreakerState(label, state string) {
	r.mu.Lock()
	r.s.ByBreaker[label] = state
	r.mu.Unlock()
}

// QueueEnter bumps the queue-depth gauge and its high watermark.
func (r *Registry) QueueEnter() {
	r.mu.Lock()
	r.s.QueueDepth++
	r.s.QueueMaxDepth = max(r.s.QueueMaxDepth, r.s.QueueDepth)
	r.mu.Unlock()
}

// QueueExit drops the queue-depth gauge.
func (r *Registry) QueueExit() { r.count(&r.s.QueueDepth, -1) }

// ObservePhase records one phase duration (seconds) into that phase's
// histogram. Unknown phases are dropped — the phase set is the obs package's
// canonical list, fixed at New.
func (r *Registry) ObservePhase(phase string, s float64) {
	r.mu.Lock()
	observe(r.s.Phases, phase, s)
	r.mu.Unlock()
}

// ObserveAdmission batches the per-request admission observations — queue
// wait into both the wait and queue-phase histograms, plus the virtual wait
// when the request carried an arrival stamp — under one lock.
func (r *Registry) ObserveAdmission(waitS, vwaitS float64, hasVWait bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Wait.Observe(waitS)
	observe(r.s.Phases, obs.PhaseQueue, waitS)
	if hasVWait {
		r.s.VWait.Observe(vwaitS)
	}
}

// observe records v into m's histogram under key, if m has one.
func observe(m map[string]obs.HistogramSnapshot, key string, v float64) {
	if h, ok := m[key]; ok {
		h.Observe(v)
		m[key] = h
	}
}

// ServedSample batches every observation the gateway records when a request
// completes service, so the hot path takes the registry lock once at the
// tail instead of once per metric.
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

// ObserveServed records one served request as a single locked update: the
// served and QoS-violation counters, the latency, energy, tenant and phase
// histograms, and the per-target and per-device counts.
func (r *Registry) ObserveServed(s ServedSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Served++
	if s.QoSViolated {
		r.s.QoSViolations++
	}
	r.s.Latency.Observe(s.LatencyS)
	r.s.Energy.Observe(s.EnergyJ)
	if s.Tenant != "" {
		h, ok := r.s.ByTenant[s.Tenant]
		if !ok {
			h = newHist()
		}
		h.Observe(s.TenantRespS)
		r.s.ByTenant[s.Tenant] = h
	}
	r.s.ByTarget[s.Target]++
	r.s.ByDevice[s.Device]++
	s.Phases.ForEach(func(phase string, durS float64) { observe(r.s.Phases, phase, durS) })
}

// Snapshot is a registry's state: a registry holds one behind its lock, and
// a read is a copy of it taken as one consistent cut, or a fold of several
// registries' cuts (see the package comment).
type Snapshot struct {
	Submitted     int64
	Served        int64
	Shed          int64
	Expired       int64
	Failed        int64
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

	// QueueDepth is the queued requests summed over registries; in a merge,
	// QueueMaxDepth sums each registry's high watermark, which upper-bounds
	// the (unknowable) watermark of the summed depth.
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

	Latency obs.HistogramSnapshot
	Wait    obs.HistogramSnapshot
	Energy  obs.HistogramSnapshot
	// VWait is the virtual queue-wait histogram (arrival-stamped requests
	// only; see serve.Request.ArrivalS).
	VWait obs.HistogramSnapshot
	// Phases holds one histogram per request phase that recorded at least
	// one observation (obs.Phases names the full set).
	Phases map[string]obs.HistogramSnapshot

	// ByTarget counts executions per execution-location label; ByDevice per
	// gateway worker; ByBreaker holds each breaker's last recorded state.
	ByTarget  map[string]int64
	ByDevice  map[string]int64
	ByBreaker map[string]string
	// ByTenant holds one virtual response-time histogram per tenant that
	// served at least one request.
	ByTenant map[string]obs.HistogramSnapshot
}

// Accounted returns the number of requests with a terminal outcome.
func (s Snapshot) Accounted() int64 { return s.Served + s.Shed + s.Expired + s.Failed }

// Snapshot copies the registry as one consistent cut.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.AddTo(&s)
	return s
}

// AddTo folds the registry into s as one consistent cut: it holds the
// registry's lock for the add. s is the zero Snapshot or the result of
// earlier folds.
func (r *Registry) AddTo(s *Snapshot) {
	r.mu.Lock()
	s.add(&r.s)
	r.mu.Unlock()
}

// Merge folds any number of snapshots into one fleet-wide view — the
// routing tier's merged registry across gateway shards — by adding them, in
// order, into a zero Snapshot.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for i := range snaps {
		out.add(&snaps[i])
	}
	return out
}

// add folds o into s, field by field; it is the one rule behind every read
// of a registry. A zero s starts from empty(). Counters and gauges sum;
// histograms add bucket-wise (obs.HistogramSnapshot.Add), so an empty one
// is the identity and allocates nothing, and a histogram-keyed entry appears
// only once it holds an observation. Adding a zero-valued or untouched
// snapshot therefore changes nothing in any operand position, and adds are
// commutative. QueueMaxDepth sums the watermarks, which upper-bounds the
// (unknowable) watermark of the summed depth. Label maps union with summed
// counts; breaker labels are device-scoped and devices are unique across
// shards, so states never collide.
func (s *Snapshot) add(o *Snapshot) {
	if s.Phases == nil {
		*s = empty()
	}
	s.Submitted += o.Submitted
	s.Served += o.Served
	s.Shed += o.Shed
	s.Expired += o.Expired
	s.Failed += o.Failed
	s.QoSViolations += o.QoSViolations
	s.Outages += o.Outages
	s.OffloadRetries += o.OffloadRetries
	s.RetriesRecovered += o.RetriesRecovered
	s.RetriesAbandoned += o.RetriesAbandoned
	s.Hedges += o.Hedges
	s.HedgesWon += o.HedgesWon
	s.HedgesLost += o.HedgesLost
	s.BreakerOpens += o.BreakerOpens
	s.BreakerHalfOpens += o.BreakerHalfOpens
	s.BreakerCloses += o.BreakerCloses
	s.WorkerCrashes += o.WorkerCrashes
	s.CorruptDrills += o.CorruptDrills
	s.DegradedSeconds += o.DegradedSeconds
	s.OutageWastedJ += o.OutageWastedJ
	s.QueueDepth += o.QueueDepth
	s.QueueMaxDepth += o.QueueMaxDepth
	s.SyncPasses += o.SyncPasses
	s.SyncFailures += o.SyncFailures
	// Consecutive failures fold by max: the sickest sync plane in the fleet
	// decides the alarm, and its error message rides along. Ties take the
	// lexicographically smallest non-empty error, so the failure count and
	// the message always come from the same shard and the fold is
	// order-independent.
	switch {
	case o.SyncConsecutiveFailures > s.SyncConsecutiveFailures:
		s.SyncConsecutiveFailures = o.SyncConsecutiveFailures
		s.SyncLastError = o.SyncLastError
	case o.SyncConsecutiveFailures == s.SyncConsecutiveFailures && o.SyncLastError != "" &&
		(s.SyncLastError == "" || o.SyncLastError < s.SyncLastError):
		s.SyncLastError = o.SyncLastError
	}
	s.Latency.Add(o.Latency)
	s.Wait.Add(o.Wait)
	s.Energy.Add(o.Energy)
	s.VWait.Add(o.VWait)
	addHists(s.Phases, o.Phases)
	for k, v := range o.ByTarget {
		s.ByTarget[k] += v
	}
	for k, v := range o.ByDevice {
		s.ByDevice[k] += v
	}
	for k, v := range o.ByBreaker {
		s.ByBreaker[k] = v
	}
	addHists(s.ByTenant, o.ByTenant)
}

// addHists adds each histogram of src with an observation into dst's entry
// under the same key.
func addHists(dst, src map[string]obs.HistogramSnapshot) {
	for k, h := range src {
		if h.Count == 0 {
			continue
		}
		acc := dst[k]
		acc.Add(h)
		dst[k] = acc
	}
}
