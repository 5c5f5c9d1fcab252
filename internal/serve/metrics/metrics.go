// Package metrics is the serving gateway's runtime instrumentation: a
// registry of counters and log-linear histograms (internal/obs) that a
// serving lane updates on the hot path, read as a Snapshot by the admin
// endpoint, the fleet supervisor, tests, the CLI and operators.
//
// A registry is its counters and histograms behind one mutex. Every mutator
// locks, updates plain fields and unlocks, so every read is a consistent cut
// by construction: cross-field invariants (Accounted <= Submitted, Served ==
// Latency.Count, bucket sums matching counts) hold in every cut, not just at
// quiescence. The labelled views are arrays on the hot path — phases by
// obs.Phase*Idx, targets by sim.Location — plus one pointer per tenant, so
// a served request writes no map; a read builds the Snapshot's label maps.
//
// One fold rule, Snapshot.add, sums a snapshot into another field by field.
// Registry.AddTo applies it to the registry's counters and fixed histograms
// and adds the labelled arrays into the Snapshot's maps, under the
// registry's lock; Registry.Snapshot is an AddTo into a zero value, and
// Merge adds snapshots one after another.
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
	"autoscale/internal/sim"
)

// numTargets is the size of the closed execution-location label set
// (local, connected, cloud).
const numTargets = int(sim.Cloud) + 1

// phaseNames maps a phase index to its canonical name, read once.
var phaseNames = obs.Phases()

// Registry accumulates gateway counters. The zero value is not usable; call
// New.
type Registry struct {
	mu sync.Mutex
	// s holds the counters, gauges and the four fixed histograms; its label
	// maps stay nil, the arrays below stand in for them.
	s Snapshot
	// device labels the served count in ByDevice: a lane serves one device.
	device   string
	phases   [obs.NumPhases]obs.HistogramSnapshot
	byTarget [numTargets]int64
	// byTenant is made on the first tenant; observing a tenant seen before
	// is a lookup, not a map write.
	byTenant map[string]*obs.HistogramSnapshot
}

// New builds a registry for one serving device; its served requests count
// under that device in ByDevice. The gateway's registry for requests that
// never reach a lane passes "". Every histogram uses obs.DefaultScheme, one
// ladder for seconds and joules, so every snapshot adds to every other;
// there is one phase histogram per canonical request phase.
func New(device string) *Registry {
	r := &Registry{device: device, s: Snapshot{
		Latency: newHist(),
		Wait:    newHist(),
		Energy:  newHist(),
		VWait:   newHist(),
	}}
	for i := range r.phases {
		r.phases[i] = newHist()
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
		Latency:  newHist(),
		Wait:     newHist(),
		Energy:   newHist(),
		VWait:    newHist(),
		Phases:   make(map[string]obs.HistogramSnapshot),
		ByTarget: make(map[string]int64),
		ByDevice: make(map[string]int64),
		ByTenant: make(map[string]obs.HistogramSnapshot),
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

// IncWorkerCrash counts one scripted worker-crash drill.
func (r *Registry) IncWorkerCrash() { r.count(&r.s.WorkerCrashes, 1) }

// IncCorruptDrill counts one scripted checkpoint-corruption drill.
func (r *Registry) IncCorruptDrill() { r.count(&r.s.CorruptDrills, 1) }

// AddOutageWastedJ accumulates energy burned on failed offload attempts.
func (r *Registry) AddOutageWastedJ(j float64) { r.accrue(&r.s.OutageWastedJ, j) }

// QueueEnter bumps the queue-depth gauge and its high watermark.
func (r *Registry) QueueEnter() {
	r.mu.Lock()
	r.s.QueueDepth++
	r.s.QueueMaxDepth = max(r.s.QueueMaxDepth, r.s.QueueDepth)
	r.mu.Unlock()
}

// QueueExit drops the queue-depth gauge.
func (r *Registry) QueueExit() { r.count(&r.s.QueueDepth, -1) }

// ObservePhase records one duration (seconds) into the histogram of the
// phase with index idx (obs.Phase*Idx). An index outside the canonical
// phase set is dropped.
func (r *Registry) ObservePhase(idx int, s float64) {
	if uint(idx) >= obs.NumPhases {
		return
	}
	r.mu.Lock()
	r.phases[idx].Observe(s)
	r.mu.Unlock()
}

// ObserveAdmission batches the per-request admission observations — queue
// wait into both the wait and queue-phase histograms, plus the virtual wait
// when the request carried an arrival stamp — under one lock.
func (r *Registry) ObserveAdmission(waitS, vwaitS float64, hasVWait bool) {
	r.mu.Lock()
	r.s.Wait.Observe(waitS)
	r.phases[obs.PhaseQueueIdx].Observe(waitS)
	if hasVWait {
		r.s.VWait.Observe(vwaitS)
	}
	r.mu.Unlock()
}

// ServedSample batches every observation the gateway records when a request
// completes service, so the hot path takes the registry lock once at the
// tail instead of once per metric.
type ServedSample struct {
	QoSViolated bool
	LatencyS    float64
	EnergyJ     float64
	// DecideS is the request's decide phase, recorded for every served
	// request, zero included.
	DecideS float64
	// Tenant, when non-empty, records TenantRespS (virtual wait plus
	// execution latency) into the tenant's response-time histogram.
	Tenant      string
	TenantRespS float64
	// Target is the execution location, counted per target.
	Target sim.Location
	// Phases feeds each non-zero phase total into its phase histogram: the
	// execution legs, since DecideS carries the decide phase.
	Phases obs.PhaseTotals
}

// ObserveServed records one served request as a single locked update: the
// served and QoS-violation counters, the latency, energy, tenant and phase
// histograms (the decide phase among them), and the per-target count.
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
		h := r.byTenant[s.Tenant]
		if h == nil {
			if r.byTenant == nil {
				r.byTenant = make(map[string]*obs.HistogramSnapshot)
			}
			h = new(obs.HistogramSnapshot)
			*h = newHist()
			r.byTenant[s.Tenant] = h
		}
		h.Observe(s.TenantRespS)
	}
	r.byTarget[s.Target]++
	r.phases[obs.PhaseDecideIdx].Observe(s.DecideS)
	for i := range r.phases {
		if v := s.Phases.Total(i); v != 0 {
			r.phases[i].Observe(v)
		}
	}
}

// Snapshot is a read of a registry's state, taken as one consistent cut, or
// a fold of several registries' cuts (see the package comment). Its label
// maps are built when a registry is folded into it.
type Snapshot struct {
	Submitted     int64
	Served        int64
	Shed          int64
	Expired       int64
	Failed        int64
	QoSViolations int64
	Outages       int64

	// Resilience counters: the scripted drills and the outage waste.
	WorkerCrashes int64
	CorruptDrills int64
	OutageWastedJ float64

	// Hedges, OffloadRetries, BreakerOpens and DegradedSeconds are always
	// zero: nothing records or folds them. They are kept, unchanged,
	// because the benchmark reads them (bench/chaos.go:317-318,
	// bench/workloads.go:207-210).
	Hedges          int64
	OffloadRetries  int64
	BreakerOpens    int64
	DegradedSeconds float64

	// QueueDepth is the queued requests summed over registries; in a merge,
	// QueueMaxDepth sums each registry's high watermark, which upper-bounds
	// the (unknowable) watermark of the summed depth.
	QueueDepth    int64
	QueueMaxDepth int64

	// Policy-sync failure state: total passes, failed passes, failed passes
	// since the last clean one (the health-endpoint alarm signal), and the
	// most recent failure message. Registries never record these and the
	// fold never carries them: there is one federation syncer, the routing
	// tier's, and Router.Snapshot copies its health in after the merge.
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

	// ByTarget counts executions per execution-location label
	// (sim.Location's names); ByDevice per gateway worker.
	ByTarget map[string]int64
	ByDevice map[string]int64
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
// earlier folds. The counters and fixed histograms fold by Snapshot.add;
// the labelled arrays fold into s's maps by the same rule, a histogram-keyed
// or count-keyed entry appearing only once it holds an observation.
func (r *Registry) AddTo(s *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.add(&r.s)
	for i := range r.phases {
		addHist(s.Phases, phaseNames[i], r.phases[i])
	}
	for loc, n := range r.byTarget {
		if n != 0 {
			s.ByTarget[sim.Location(loc).String()] += n
		}
	}
	if r.s.Served != 0 {
		s.ByDevice[r.device] += r.s.Served
	}
	for k, h := range r.byTenant {
		addHist(s.ByTenant, k, *h)
	}
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
// counts. The Sync* fields are not folded (see Snapshot).
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
	s.WorkerCrashes += o.WorkerCrashes
	s.CorruptDrills += o.CorruptDrills
	s.OutageWastedJ += o.OutageWastedJ
	s.QueueDepth += o.QueueDepth
	s.QueueMaxDepth += o.QueueMaxDepth
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
	addHists(s.ByTenant, o.ByTenant)
}

// addHists adds each histogram of src into dst's entry under the same key.
func addHists(dst, src map[string]obs.HistogramSnapshot) {
	for k, h := range src {
		addHist(dst, k, h)
	}
}

// addHist adds h into dst's entry under k, if h holds an observation.
func addHist(dst map[string]obs.HistogramSnapshot, k string, h obs.HistogramSnapshot) {
	if h.Count == 0 {
		return
	}
	acc := dst[k]
	acc.Add(h)
	dst[k] = acc
}
