// Package super is the fleet's self-healing tier: a supervision loop above
// internal/router that turns signals the system already emits — windowed
// latency histograms, breaker open-counts, crash counters, queue gauges and
// RL learning health — into one health score per shard, and autonomously
// remediates with hysteresis: probe → cordon (stop placing unpinned work) →
// drain + re-home over the checkpoint-warm-start path → restart with
// crash-loop exponential backoff, converging to dead when a bounded
// remediation budget runs out.
//
// Like the planner it sits next to, the supervisor runs on the virtual
// clock: MaybeTick is called from the driving loop with the current virtual
// time, every decision is a pure function of the tick sequence and the
// signals observed at each tick, and no wall-clock time or randomness enters
// the loop — so a fixed-seed chaos storm supervises byte-identically on
// every replay.
package super

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"autoscale/internal/obs"
	"autoscale/internal/router"
	"autoscale/internal/serve"
)

// Config tunes a Supervisor. Zero values select the defaults.
type Config struct {
	// IntervalS is the tick period on the virtual clock (default 0.5s).
	IntervalS float64
	// LatencyTargetS is the windowed p95 the latency component scores
	// against (default 0.1s).
	LatencyTargetS float64
	// RestartBackoffS is the first revive delay on the virtual clock; it
	// doubles per restart — the crash-loop backoff (default 2s).
	RestartBackoffS float64
	// MaxRestarts is the remediation budget: revive attempts per shard
	// before it is condemned dead (default 3).
	MaxRestarts int
}

// The remediation ladder's thresholds.
const (
	// unhealthyBelow is the score under which a tick counts as sick;
	// healthyAbove the score over which a tick counts as well. The gap
	// between them is the hysteresis band.
	unhealthyBelow = 0.5
	healthyAbove   = 0.75
	// sickTicks is how many consecutive sick ticks cordon a shard;
	// wellTicks how many consecutive well ticks lift the cordon.
	sickTicks = 2
	wellTicks = 2
	// drainAfterTicks is how many cordoned-and-still-sick ticks escalate to
	// drain + restart.
	drainAfterTicks = 3
	// drainTimeout bounds each escalated drain (wall time — the drain
	// itself is queue work, not virtual time).
	drainTimeout = 30 * time.Second
)

func (c Config) intervalS() float64 {
	if c.IntervalS <= 0 {
		return 0.5
	}
	return c.IntervalS
}

func (c Config) latencyTargetS() float64 {
	if c.LatencyTargetS <= 0 {
		return 0.1
	}
	return c.LatencyTargetS
}

func (c Config) restartBackoffS() float64 {
	if c.RestartBackoffS <= 0 {
		return 2
	}
	return c.RestartBackoffS
}

func (c Config) maxRestarts() int {
	if c.MaxRestarts <= 0 {
		return 3
	}
	return c.MaxRestarts
}

// phase is the supervisor's view of one shard — finer than the router's
// lifecycle because it carries the remediation ladder's position.
type phase int

const (
	phaseOK phase = iota
	phaseProbing
	phaseCordoned
	phaseDown // awaiting restart (drained or dead at the router)
	phaseDead // condemned: remediation budget exhausted
)

func (p phase) String() string {
	switch p {
	case phaseOK:
		return "ok"
	case phaseProbing:
		return "probing"
	case phaseCordoned:
		return "cordoned"
	case phaseDown:
		return "down"
	case phaseDead:
		return "dead"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// record is the supervisor's per-shard state.
type record struct {
	name        string
	phase       phase
	incarnation int

	sick, well  int
	cordonTicks int

	restarts      int
	backoffS      float64
	nextRestartAt float64

	lastScore   float64
	lastReason  string
	lastSampled bool

	// Windowed-delta baselines, reset on incarnation change (a revived
	// gateway's counters restart at zero).
	prevLat     obs.HistogramSnapshot
	prevOpens   int64
	prevCrashes int64
}

// Action is one remediation the supervisor took, for the status document.
type Action struct {
	AtS    float64 `json:"at_s"`
	Shard  string  `json:"shard"`
	Action string  `json:"action"`
	Detail string  `json:"detail,omitempty"`
}

// maxActions bounds the remembered remediation log.
const maxActions = 64

// Supervisor is the self-healing loop over one router. MaybeTick is safe for
// concurrent callers, but determinism requires the same single driving
// goroutine discipline the planner uses.
type Supervisor struct {
	rt  *router.Router
	cfg Config

	mu       sync.Mutex
	primed   bool
	lastTick float64
	ticks    uint64
	recs     map[string]*record
	actions  []Action
}

// New builds a supervisor over a router.
func New(rt *router.Router, cfg Config) (*Supervisor, error) {
	if rt == nil {
		return nil, errors.New("super: nil router")
	}
	return &Supervisor{rt: rt, cfg: cfg, recs: make(map[string]*record)}, nil
}

// MaybeTick runs one supervision pass when the virtual clock has advanced a
// full interval past the last tick; otherwise it returns false without
// touching anything. Call it from the driving loop with the current virtual
// time, exactly like plan.Planner.MaybeTick.
func (s *Supervisor) MaybeTick(now float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.primed && now-s.lastTick < s.cfg.intervalS() {
		return false
	}
	s.primed = true
	s.lastTick = now
	s.ticks++
	s.tickLocked(now)
	return true
}

func (s *Supervisor) note(now float64, shard, action, detail string) {
	s.actions = append(s.actions, Action{AtS: now, Shard: shard, Action: action, Detail: detail})
	if len(s.actions) > maxActions {
		s.actions = s.actions[len(s.actions)-maxActions:]
	}
	// Every ladder edge lands in the flight recorder's event ring, and the
	// active interventions snapshot an incident bundle to disk — the black-box
	// dump an operator replays after the fleet healed itself.
	rec := s.rt.Recorder()
	msg := action
	if detail != "" {
		msg = action + ": " + detail
	}
	rec.Note(now, "super", shard, msg)
	switch action {
	case "cordon", "drain", "revive", "condemn":
		rec.Trigger(now, "super "+action+" "+shard)
	}
}

func (s *Supervisor) tickLocked(now float64) {
	for _, sig := range s.rt.ShardSignals() {
		rec, ok := s.recs[sig.Name]
		if !ok {
			rec = &record{name: sig.Name, backoffS: s.cfg.restartBackoffS(), lastScore: 1}
			s.recs[sig.Name] = rec
		}
		if sig.Incarnation != rec.incarnation {
			// A fresh gateway: counters restarted, windows are meaningless.
			rec.incarnation = sig.Incarnation
			rec.prevLat = obs.HistogramSnapshot{}
			rec.prevOpens, rec.prevCrashes = 0, 0
		}
		s.superviseShard(now, rec, sig)
	}
}

// superviseShard advances one shard's remediation ladder by one tick.
func (s *Supervisor) superviseShard(now float64, rec *record, sig router.ShardSignal) {
	if rec.phase == phaseDead {
		return
	}

	serving := sig.State == "healthy" || sig.State == "cordoned"
	if serving {
		rec.lastScore, rec.lastReason, rec.lastSampled = s.score(rec, sig)
	}

	switch {
	case rec.phase == phaseDown:
		if serving {
			// Someone revived it outside the supervisor; observe it fresh.
			rec.phase = phaseProbing
			rec.sick, rec.well = 0, 0
			return
		}
		if now < rec.nextRestartAt {
			return
		}
		if rec.restarts >= s.cfg.maxRestarts() {
			s.condemn(now, rec)
			return
		}
		rec.restarts++
		if err := s.rt.ReviveShard(rec.name); err != nil {
			s.note(now, rec.name, "revive-failed", err.Error())
			rec.nextRestartAt = now + rec.backoffS
			rec.backoffS *= 2
			if rec.restarts >= s.cfg.maxRestarts() {
				s.condemn(now, rec)
			}
			return
		}
		s.note(now, rec.name, "revive", fmt.Sprintf("restart %d/%d", rec.restarts, s.cfg.maxRestarts()))
		// Crash-loop backoff: the next failure waits twice as long.
		rec.backoffS *= 2
		rec.phase = phaseProbing
		rec.sick, rec.well, rec.cordonTicks = 0, 0, 0

	case sig.State == "dead" || sig.State == "drained":
		// Died since the last tick (crash drill or an external drain):
		// enter the restart path.
		s.note(now, rec.name, "down", "observed "+sig.State)
		rec.phase = phaseDown
		rec.nextRestartAt = now + rec.backoffS

	case sig.State == "draining":
		// Transient; re-judge next tick.

	case sig.State == "cordoned":
		rec.phase = phaseCordoned
		if !rec.lastSampled {
			// No probe traffic reached it this window: no evidence either
			// way, so the cordon neither lifts nor escalates. Pinned probes
			// (or breaker/crash deltas) are what move a cordoned shard.
			return
		}
		if rec.lastScore >= healthyAbove {
			rec.well++
		} else {
			rec.well = 0
			rec.cordonTicks++
		}
		if rec.well >= wellTicks {
			if err := s.rt.UncordonShard(rec.name); err == nil {
				s.note(now, rec.name, "uncordon", "")
				rec.phase = phaseOK
				rec.sick, rec.well, rec.cordonTicks = 0, 0, 0
			}
			return
		}
		if rec.cordonTicks >= drainAfterTicks {
			// Still sick under cordon: drain it (checkpoints flush, lanes
			// re-home warm) and schedule a restart with backoff.
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			err := s.rt.DrainShard(ctx, rec.name)
			cancel()
			if err != nil {
				s.note(now, rec.name, "drain-failed", err.Error())
			} else {
				s.note(now, rec.name, "drain", "cordon did not recover")
			}
			rec.phase = phaseDown
			rec.nextRestartAt = now + rec.backoffS
		}

	default: // healthy at the router
		if rec.lastScore < unhealthyBelow {
			rec.sick++
			rec.well = 0
		} else {
			rec.sick = 0
		}
		if rec.sick >= sickTicks {
			if err := s.rt.CordonShard(rec.name); err == nil {
				s.note(now, rec.name, "cordon", rec.lastReason)
				rec.phase = phaseCordoned
				rec.cordonTicks, rec.well = 0, 0
			}
			return
		}
		if rec.sick > 0 {
			rec.phase = phaseProbing
		} else {
			rec.phase = phaseOK
		}
	}
}

func (s *Supervisor) condemn(now float64, rec *record) {
	if err := s.rt.CondemnShard(rec.name); err != nil {
		s.note(now, rec.name, "condemn-failed", err.Error())
	} else {
		s.note(now, rec.name, "condemn", fmt.Sprintf("budget exhausted after %d restarts", rec.restarts))
	}
	rec.phase = phaseDead
}

// score computes one shard's health in [0, 1] from the signals the system
// already emits, over the window since the last tick. Components:
// windowed-p95 latency vs target (weight 0.45), breaker opens (0.2), worker
// crashes (0.2), queue depth (0.1) and RL TD-error health (0.05). A window
// with no served requests scores its latency component neutral — absence of
// traffic is not evidence of sickness — and reports sampled=false so the
// cordon logic can tell a probed-healthy window from an idle one. It also
// advances the windowed-delta baselines.
func (s *Supervisor) score(rec *record, sig router.ShardSignal) (float64, string, bool) {
	lat := 1.0
	sampled := false
	cur := sig.Latency
	if dCount := cur.Count - rec.prevLat.Count; dCount > 0 && len(cur.Counts) > 0 {
		sampled = true
		delta := obs.HistogramSnapshot{
			Scheme: cur.Scheme,
			Counts: make([]int64, len(cur.Counts)),
			Count:  dCount,
			Max:    cur.Max,
		}
		for i, c := range cur.Counts {
			prev := int64(0)
			if i < len(rec.prevLat.Counts) {
				prev = rec.prevLat.Counts[i]
			}
			delta.Counts[i] = c - prev
		}
		if p95 := delta.Quantile(0.95); p95 > s.cfg.latencyTargetS() {
			lat = s.cfg.latencyTargetS() / p95
		}
	}

	opens := sig.BreakerOpens - rec.prevOpens
	if opens < 0 {
		opens = 0
	}
	brk := 1.0 / float64(1+opens)

	crashes := sig.WorkerCrashes - rec.prevCrashes
	if crashes < 0 {
		crashes = 0
	}
	crash := 1.0 / float64(1+2*crashes)

	queue := 1.0 / (1 + float64(sig.QueueDepth)/16)

	rl := 1.0
	if len(sig.Health) > 0 {
		td := 0.0
		for _, h := range sig.Health {
			td += h.TDErrorEMA
		}
		td /= float64(len(sig.Health))
		rl = 1.0 / (1 + td)
	}

	// Advance the window baselines.
	rec.prevLat = cur
	rec.prevOpens = sig.BreakerOpens
	rec.prevCrashes = sig.WorkerCrashes

	// Weighted geometric mean: unlike an additive mix, one catastrophic
	// component (a 30x gray latency multiplier, say) drags the whole score
	// below the sick threshold even while every other signal looks clean.
	score := math.Pow(lat, 0.45) * math.Pow(brk, 0.2) * math.Pow(crash, 0.2) *
		math.Pow(queue, 0.1) * math.Pow(rl, 0.05)
	reason := "latency"
	worst := lat
	for _, c := range []struct {
		name string
		v    float64
	}{{"breakers", brk}, {"crashes", crash}, {"queue", queue}, {"rl", rl}} {
		if c.v < worst {
			worst, reason = c.v, c.name
		}
	}
	if opens > 0 || crashes > 0 {
		sampled = true
	}
	if score >= healthyAbove {
		reason = ""
	}
	return score, reason, sampled
}

// ShardStatus is one shard's row in the /supervisor document.
type ShardStatus struct {
	Name        string  `json:"name"`
	RouterState string  `json:"router_state"`
	Phase       string  `json:"phase"`
	Score       float64 `json:"score"`
	Reason      string  `json:"reason,omitempty"`
	SickTicks   int     `json:"sick_ticks,omitempty"`
	WellTicks   int     `json:"well_ticks,omitempty"`
	Restarts    int     `json:"restarts,omitempty"`
	Incarnation int     `json:"incarnation,omitempty"`
	NextRetryS  float64 `json:"next_retry_s,omitempty"`
}

// Status is the /supervisor document: the supervision loop's current view
// and its recent remediation log.
type Status struct {
	Ticks     uint64        `json:"ticks"`
	LastTickS float64       `json:"last_tick_s"`
	IntervalS float64       `json:"interval_s"`
	Shards    []ShardStatus `json:"shards"`
	Actions   []Action      `json:"actions,omitempty"`
}

// Status reports the supervisor's current state, shards in name order.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Ticks:     s.ticks,
		LastTickS: s.lastTick,
		IntervalS: s.cfg.intervalS(),
		Actions:   append([]Action(nil), s.actions...),
	}
	for _, sig := range s.rt.ShardClocks() {
		row := ShardStatus{Name: sig.Name, RouterState: sig.State, Phase: phaseOK.String(), Score: 1}
		if rec, ok := s.recs[sig.Name]; ok {
			row.Phase = rec.phase.String()
			row.Score = rec.lastScore
			row.Reason = rec.lastReason
			row.SickTicks = rec.sick
			row.WellTicks = rec.well
			row.Restarts = rec.restarts
			row.Incarnation = rec.incarnation
			if rec.phase == phaseDown {
				row.NextRetryS = rec.nextRestartAt
			}
		}
		st.Shards = append(st.Shards, row)
	}
	return st
}

// StatusJSON renders Status for the admin /supervisor handler.
func (s *Supervisor) StatusJSON() ([]byte, error) {
	return json.MarshalIndent(s.Status(), "", "  ")
}

// phaseValue encodes a phase for the Prometheus gauge.
func phaseValue(p string) float64 {
	switch p {
	case "probing":
		return 1
	case "cordoned":
		return 2
	case "down":
		return 3
	case "dead":
		return 4
	}
	return 0
}

// AdminView is the supervisor's admin contribution: the /supervisor document
// (per-shard health scores, remediation state, the action log) and the
// autoscale_super_* series. Read-side only.
func (s *Supervisor) AdminView() serve.View {
	return serve.View{Path: "/supervisor", JSON: s.StatusJSON, Prom: s.AppendProm}
}

// AppendProm appends the supervisor's own series.
func (s *Supervisor) AppendProm(p *obs.Prom) {
	st := s.Status()
	p.Counter("autoscale_super_ticks_total", "Supervision passes run.", float64(st.Ticks))
	p.Gauge("autoscale_super_last_tick_seconds", "Virtual time of the last supervision pass.", st.LastTickS)
	for _, sh := range st.Shards {
		p.Gauge("autoscale_super_score", "Per-shard health score in [0,1].", sh.Score, "shard", sh.Name)
		p.Gauge("autoscale_super_phase", "Remediation phase: 0 ok, 1 probing, 2 cordoned, 3 down, 4 dead.",
			phaseValue(sh.Phase), "shard", sh.Name)
		p.Counter("autoscale_super_restarts_total", "Revive attempts consumed.", float64(sh.Restarts), "shard", sh.Name)
		p.Gauge("autoscale_super_incarnation", "Gateway rebuilds observed.", float64(sh.Incarnation), "shard", sh.Name)
	}
}
