package plan

import (
	"fmt"
	"math"
	"sync"

	"autoscale/internal/fault"
	"autoscale/internal/router"
)

// Config tunes a Planner.
type Config struct {
	// Classes are the SLO tiers the planner provisions for. Required, at
	// least one. Each class must match a router tenant (provision the
	// router with Tenants(classes)).
	Classes []Class
	// IntervalS is the recompute period on the virtual arrival clock
	// (default 1s). MaybeTick calls inside a window are free no-ops.
	IntervalS float64
	// MaxStepFactor rate-limits actuation (default 2.0): each tick may at
	// most multiply or divide the active-lane count by this factor, so a
	// noisy estimate cannot slam the fleet between extremes.
	MaxStepFactor float64
	// SurgeLookaheadS is how far ahead the planner scans the fault schedule
	// for load surges (default 2x IntervalS): capacity is provisioned for
	// the peak surge factor in [now, now+lookahead), so scale-up lands
	// before the surge does.
	SurgeLookaheadS float64
	// Faults, when non-nil, is the schedule the lookahead scans.
	Faults *fault.Injector
}

// The planner's model constants.
const (
	// ewmaAlpha smooths the arrival-rate and service-time estimators:
	// higher reacts faster, lower rides out bursts.
	ewmaAlpha float64 = 0.35
	// utilizationTarget caps planned per-lane occupancy: lanes are added
	// until predicted ρ falls under it, independent of the wait target.
	utilizationTarget float64 = 0.7
	// headroom over-provisions the modeled lane requirement by a fraction
	// so estimation lag does not translate into queueing.
	headroom float64 = 0.15
)

func (c Config) intervalS() float64 {
	if c.IntervalS <= 0 {
		return 1
	}
	return c.IntervalS
}

func (c Config) stepFactor() float64 {
	if c.MaxStepFactor < 1 {
		return 2.0
	}
	return c.MaxStepFactor
}

func (c Config) lookaheadS() float64 {
	if c.SurgeLookaheadS <= 0 {
		return 2 * c.intervalS()
	}
	return c.SurgeLookaheadS
}

// Decision is one recompute's output: the estimates it saw, the model it
// fit, and the actuation it applied. Map keys are class names; Go's JSON
// encoder sorts them, so a marshaled decision is deterministic.
type Decision struct {
	// Generation counts recomputes since the planner was built.
	Generation int64 `json:"generation"`
	// AtS is the virtual arrival-clock time of the recompute.
	AtS float64 `json:"at_s"`
	// RateHz is the EWMA-estimated offered arrival rate per class
	// (admitted plus shed, before surge scaling).
	RateHz map[string]float64 `json:"rate_hz"`
	// TotalRateHz sums RateHz across classes.
	TotalRateHz float64 `json:"total_rate_hz"`
	// SurgeFactor is the peak scheduled load multiplier in the lookahead
	// window (1 when no surge is scheduled).
	SurgeFactor float64 `json:"surge_factor"`
	// PlanRateHz = TotalRateHz x SurgeFactor — the arrival rate capacity
	// was provisioned for.
	PlanRateHz float64 `json:"plan_rate_hz"`
	// ServiceS is the EWMA-estimated mean service time per request.
	ServiceS float64 `json:"service_s"`
	// Held reports a tick with no usable estimate yet (no completed
	// requests, or zero arrival rate): the planner records but does not
	// actuate.
	Held bool `json:"held,omitempty"`
	// RequiredLanes is the raw M/M/c lane requirement before headroom,
	// clamping and rate limiting; ActiveLanes is what was applied.
	RequiredLanes int `json:"required_lanes"`
	ActiveLanes   int `json:"active_lanes"`
	TotalLanes    int `json:"total_lanes"`
	// Budget is the applied global in-flight budget.
	Budget int `json:"budget"`
	// QueueDepth is the applied per-class router queue bound.
	QueueDepth map[string]int `json:"queue_depth"`
	// PredictedWaitS / PredictedOccupancy are the M/M/c model's outputs at
	// the applied lane count (capped at 1 occupancy for reporting).
	PredictedWaitS     float64 `json:"predicted_wait_s"`
	PredictedOccupancy float64 `json:"predicted_occupancy"`
	// MeasuredOccupancy is busy-seconds per active-lane-second over the
	// last window (service-sum delta / lanes x wall delta), and
	// CalibrationError the relative gap |predicted-measured|/measured
	// between the previous decision's prediction and this measurement.
	// Report-only: calibration never feeds back into actuation.
	MeasuredOccupancy float64 `json:"measured_occupancy"`
	CalibrationError  float64 `json:"calibration_error"`
}

// ClassStatus is one SLO class's attainment row.
type ClassStatus struct {
	Name       string  `json:"name"`
	TargetP95S float64 `json:"target_p95_s"`
	// AchievedP95S is the measured p95 virtual response time (vwait plus
	// execution latency) for the class's tenant; zero before any request.
	AchievedP95S float64 `json:"achieved_p95_s"`
	// Attained reports AchievedP95S <= TargetP95S (true while unmeasured).
	Attained  bool    `json:"attained"`
	Weight    int     `json:"weight"`
	MaxQueueS float64 `json:"max_queue_s"`
	Admitted  uint64  `json:"admitted"`
	Shed      uint64  `json:"shed"`
	Queued    int     `json:"queued"`
	Depth     int     `json:"depth"`
}

// Status is the /plan document: the latest decision plus per-class SLO
// attainment.
type Status struct {
	Decision Decision      `json:"decision"`
	Classes  []ClassStatus `json:"classes"`
}

// Planner closes the slow control loop: it estimates per-class arrival
// rates and the fleet mean service time from the router's counters, fits an
// M/M/c occupancy model, and actuates lanes, budgets and queue depths
// through the router's clamped setters. Building a planner immediately
// applies the static class policy (DRR weights and admission gates);
// capacity moves only on MaybeTick.
type Planner struct {
	rt  *router.Router
	cfg Config

	mu         sync.Mutex
	rates      map[string]*rateEstimator
	svc        meanEstimator
	lastTick   float64
	primed     bool
	lastLanes  int
	lastBudget int
	// calibration window state: previous snapshot's service-time sum, tick
	// time, lane count and predicted occupancy.
	prevSum   float64
	prevAt    float64
	prevLanes int
	prevPred  float64
	last      Decision
}

// New validates the classes, applies their static router policy (weights
// and admission-wait gates, strictly class-ordered sheds) and returns a
// planner ready to tick. The router must have been configured with a tenant
// per class (see Tenants).
func New(rt *router.Router, cfg Config) (*Planner, error) {
	if rt == nil {
		return nil, fmt.Errorf("plan: nil router")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("plan: no SLO classes")
	}
	seen := map[string]bool{}
	for _, c := range cfg.Classes {
		if err := c.validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("plan: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
	}
	p := &Planner{
		rt:        rt,
		cfg:       cfg,
		rates:     make(map[string]*rateEstimator, len(cfg.Classes)),
		svc:       meanEstimator{alpha: ewmaAlpha},
		lastLanes: rt.ActiveLanes(),
	}
	for _, c := range cfg.Classes {
		p.rates[c.Name] = &rateEstimator{alpha: ewmaAlpha}
		if err := rt.SetTenantWeight(c.Name, c.Weight); err != nil {
			return nil, fmt.Errorf("plan: class %q has no router tenant: %w", c.Name, err)
		}
		if err := rt.SetAdmissionWait(c.Name, c.MaxQueueS); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Router returns the routing tier the planner actuates — the front door
// callers submit requests through.
func (p *Planner) Router() *router.Router { return p.rt }

// MaybeTick recomputes the plan if a full interval has elapsed on the
// virtual arrival clock since the last recompute. It returns the decision
// and whether this call produced it. Drive it from the admission path
// (per-request, with the request's arrival stamp) or a replay loop: ticks
// are pure arithmetic on counters — no wall clock, no randomness — so a
// fixed-seed run re-plans identically.
func (p *Planner) MaybeTick(now float64) (Decision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.primed && now-p.lastTick < p.cfg.intervalS() {
		return p.last, false
	}
	d := p.recomputeLocked(now)
	p.lastTick = now
	p.primed = true
	p.last = d
	return d, true
}

// recomputeLocked runs one estimation -> model -> actuation pass at virtual
// time now. Callers hold p.mu.
func (p *Planner) recomputeLocked(now float64) Decision {
	d := Decision{
		Generation: p.last.Generation + 1,
		AtS:        now,
		RateHz:     make(map[string]float64, len(p.cfg.Classes)),
		QueueDepth: make(map[string]int, len(p.cfg.Classes)),
	}

	// Estimation: per-class offered rate from the router's admission
	// counters, fleet mean service time from the latency histogram.
	snap := p.rt.Snapshot()
	svc := p.svc.observe(snap.Latency.Count, snap.Latency.Sum)
	byTenant := map[string]struct {
		offered uint64
		queued  int
	}{}
	for _, tq := range p.rt.TenantQueues() {
		byTenant[tq.Tenant] = struct {
			offered uint64
			queued  int
		}{tq.Admitted + tq.Shed, tq.Queued}
	}
	total := 0.0
	for _, c := range p.cfg.Classes {
		est := p.rates[c.Name]
		rate := est.observe(now, byTenant[c.Name].offered)
		d.RateHz[c.Name] = rate
		total += rate
	}
	d.TotalRateHz = total
	d.ServiceS = svc

	// Lookahead: provision for the worst surge scheduled inside the
	// horizon, so lanes come up before the wave hits.
	d.SurgeFactor = 1
	if p.cfg.Faults != nil {
		d.SurgeFactor = p.cfg.Faults.PeakSurge(now, now+p.cfg.lookaheadS())
	}
	d.PlanRateHz = total * d.SurgeFactor

	d.TotalLanes = p.rt.TotalLanes()
	d.ActiveLanes = p.rt.ActiveLanes()
	d.Budget = p.rt.GlobalBudget()

	// Calibration: compare the previous prediction against the occupancy
	// the fleet actually measured over the window just ended.
	if p.prevAt > 0 && now > p.prevAt && p.prevLanes > 0 {
		busy := snap.Latency.Sum - p.prevSum
		d.MeasuredOccupancy = busy / (float64(p.prevLanes) * (now - p.prevAt))
		if d.MeasuredOccupancy > 0 {
			d.CalibrationError = math.Abs(p.prevPred-d.MeasuredOccupancy) / d.MeasuredOccupancy
		}
	}

	if d.PlanRateHz <= 0 || svc <= 0 {
		// No usable estimate yet: hold capacity, record the tick.
		d.Held = true
		p.noteWindow(now, snap.Latency.Sum, d.ActiveLanes, d.PredictedOccupancy)
		return d
	}
	mu := 1 / svc

	// Model: lanes to meet the strictest class's wait budget, then the
	// utilization ceiling, then headroom.
	strictest := math.Inf(1)
	for _, c := range p.cfg.Classes {
		if c.TargetP95S < strictest {
			strictest = c.TargetP95S
		}
	}
	waitBudget := strictest - svc
	if waitBudget < strictest/4 {
		waitBudget = strictest / 4
	}
	need := RequiredServers(d.PlanRateHz, mu, waitBudget, d.TotalLanes)
	if byUtil := int(math.Ceil(d.PlanRateHz / (mu * utilizationTarget))); byUtil > need {
		need = byUtil
	}
	d.RequiredLanes = need
	lanes := int(math.Ceil(float64(need) * (1 + headroom)))

	// Clamp to [1, TotalLanes] and rate-limit against the previous applied
	// lane count.
	if lanes < 1 {
		lanes = 1
	}
	if lanes > d.TotalLanes {
		lanes = d.TotalLanes
	}
	if prev := p.lastLanes; prev > 0 {
		step := p.cfg.stepFactor()
		if up := int(math.Ceil(float64(prev) * step)); lanes > up {
			lanes = up
		}
		if down := int(math.Floor(float64(prev) / step)); lanes < down {
			lanes = down
		}
	}

	// Actuation, all through clamped router setters. Capacity moves land in
	// the flight recorder's event ring — only actual changes, so a steady
	// plan does not flood the ring with per-tick noise.
	applied := p.rt.SetActiveLanes(lanes)
	if applied > 0 && applied != p.lastLanes {
		p.rt.Recorder().Note(now, "plan", "lanes",
			fmt.Sprintf("active lanes %d -> %d (required %d)", p.lastLanes, applied, need))
	}
	if applied > 0 {
		p.lastLanes = applied
	}
	d.ActiveLanes = applied
	// The budget tracks 2x active lanes — one serving plus one queued per
	// lane.
	d.Budget = p.rt.SetGlobalBudget(2 * applied)
	if d.Budget != p.lastBudget {
		if p.lastBudget != 0 {
			p.rt.Recorder().Note(now, "plan", "budget",
				fmt.Sprintf("global budget %d -> %d", p.lastBudget, d.Budget))
		}
		p.lastBudget = d.Budget
	}
	for _, c := range p.cfg.Classes {
		// Depth: the queue a class may accumulate before its admission
		// gate bites anyway — its surged arrival share for MaxQueueS.
		depth := int(math.Ceil(d.RateHz[c.Name]*d.SurgeFactor*c.MaxQueueS)) + 1
		if depth < 4 {
			depth = 4
		}
		if depth > 4096 {
			depth = 4096
		}
		if _, err := p.rt.SetTenantQueueDepth(c.Name, depth); err == nil {
			d.QueueDepth[c.Name] = depth
		}
	}

	m := MMC{LambdaHz: d.PlanRateHz, MuHz: mu, Servers: applied}
	d.PredictedWaitS = m.MeanWaitS()
	if math.IsInf(d.PredictedWaitS, 1) {
		d.PredictedWaitS = -1 // unstable: no finite wait to report
	}
	d.PredictedOccupancy = math.Min(m.Occupancy(), 1)
	p.noteWindow(now, snap.Latency.Sum, applied, d.PredictedOccupancy)
	return d
}

// noteWindow records the calibration baseline for the next tick.
func (p *Planner) noteWindow(now, latencySum float64, lanes int, pred float64) {
	p.prevAt = now
	p.prevSum = latencySum
	p.prevLanes = lanes
	p.prevPred = pred
}

// Status assembles the /plan document: latest decision plus per-class SLO
// attainment measured from the per-tenant response histograms.
func (p *Planner) Status() Status {
	p.mu.Lock()
	last := p.last
	p.mu.Unlock()
	snap := p.rt.Snapshot()
	rows := map[string]ClassStatus{}
	for _, tq := range p.rt.TenantQueues() {
		rows[tq.Tenant] = ClassStatus{
			Admitted: tq.Admitted,
			Shed:     tq.Shed,
			Queued:   tq.Queued,
			Depth:    tq.Depth,
			Weight:   tq.Weight,
		}
	}
	st := Status{Decision: last, Classes: make([]ClassStatus, 0, len(p.cfg.Classes))}
	for _, c := range p.cfg.Classes {
		row := rows[c.Name]
		row.Name = c.Name
		row.TargetP95S = c.TargetP95S
		row.MaxQueueS = c.MaxQueueS
		if h, ok := snap.ByTenant[c.Name]; ok && h.Count > 0 {
			row.AchievedP95S = h.Quantile(0.95)
		}
		row.Attained = row.AchievedP95S <= c.TargetP95S
		st.Classes = append(st.Classes, row)
	}
	return st
}
