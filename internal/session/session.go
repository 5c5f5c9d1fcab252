// Package session drives a scheduling policy with realistic inference
// request streams — periodic camera frames, Poisson user interactions,
// bursts — over simulated wall-clock time, accounting battery drain for both
// the inferences and the idle gaps between them. It is the layer a service
// integrating AutoScale would actually run: the paper's Android application
// scenarios (Section V-B) are instances of it.
package session

import (
	"errors"
	"fmt"
	"math"

	"autoscale/internal/battery"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
)

// Arrival generates the idle gap before the next inference request.
type Arrival interface {
	// NextGapS returns the seconds of idle time before the next request,
	// drawing from the session's named arrival stream.
	NextGapS(rng *exec.Rand) float64
}

// Periodic issues requests at a fixed cadence (e.g. one per video frame).
type Periodic struct {
	// PeriodS is the request period in seconds.
	PeriodS float64
}

// NextGapS implements Arrival.
func (p Periodic) NextGapS(*exec.Rand) float64 { return math.Max(0, p.PeriodS) }

// Poisson issues requests with exponentially distributed gaps — the classic
// model of user-initiated interactions.
type Poisson struct {
	// RatePerS is the mean request rate.
	RatePerS float64
}

// NextGapS implements Arrival.
func (p Poisson) NextGapS(rng *exec.Rand) float64 {
	if p.RatePerS <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / p.RatePerS
}

// Bursty alternates active bursts of back-to-back requests with long idle
// gaps (a user taking a burst of photos, then pocketing the phone).
type Bursty struct {
	// BurstLen is the number of requests per burst.
	BurstLen int
	// WithinGapS is the gap between requests inside a burst.
	WithinGapS float64
	// BetweenGapS is the mean (exponential) gap between bursts.
	BetweenGapS float64

	left int
}

// NextGapS implements Arrival.
func (b *Bursty) NextGapS(rng *exec.Rand) float64 {
	if b.left > 0 {
		b.left--
		return b.WithinGapS
	}
	b.left = b.BurstLen - 1
	if b.left < 0 {
		b.left = 0
	}
	if b.BetweenGapS <= 0 {
		return b.WithinGapS
	}
	return rng.ExpFloat64() * b.BetweenGapS
}

// Config describes one session.
type Config struct {
	// Model is the network the service runs.
	Model *dnn.Model
	// Env supplies the runtime-variance conditions.
	Env *sim.Environment
	// Arrival generates the request stream.
	Arrival Arrival
	// DurationS is the simulated wall-clock length of the session.
	DurationS float64
	// Intensity picks the QoS target for vision models.
	Intensity sim.Intensity
	// IdleW is the platform power drawn during idle gaps (screen-on
	// baseline); the per-inference energies already include the platform
	// share during execution.
	IdleW float64
	// Seed drives the arrival process.
	Seed int64
}

// Stats summarizes a session.
type Stats struct {
	// SimulatedS is the wall-clock time covered.
	SimulatedS float64
	// Inferences served.
	Inferences int
	// EnergyJ spent on inference; IdleEnergyJ on the gaps between.
	EnergyJ     float64
	IdleEnergyJ float64
	// MeanLatencyS over the served inferences.
	MeanLatencyS float64
	// QoSViolations counts inferences over the target.
	QoSViolations int
	// ByLocation histograms the chosen execution locations.
	ByLocation map[sim.Location]int
	// BatteryDrainedJ is what the session took from the battery (when one
	// was supplied), inference plus idle.
	BatteryDrainedJ float64
}

// ViolationRatio returns the fraction of inferences over the QoS target.
func (s Stats) ViolationRatio() float64 {
	if s.Inferences == 0 {
		return 0
	}
	return float64(s.QoSViolations) / float64(s.Inferences)
}

// AvgPowerW returns the session's average total power draw.
func (s Stats) AvgPowerW() float64 {
	if s.SimulatedS <= 0 {
		return 0
	}
	return (s.EnergyJ + s.IdleEnergyJ) / s.SimulatedS
}

// Run replays the session against a policy, optionally draining a battery
// (pass nil to skip). The session ends at the configured duration or when
// the battery empties, whichever comes first.
func Run(p sched.Policy, cfg Config, b *battery.Battery) (Stats, error) {
	if p == nil {
		return Stats{}, errors.New("session: nil policy")
	}
	if cfg.Model == nil || cfg.Env == nil || cfg.Arrival == nil {
		return Stats{}, errors.New("session: config needs Model, Env and Arrival")
	}
	if cfg.DurationS <= 0 {
		return Stats{}, errors.New("session: non-positive duration")
	}
	// The session owns an execution context: the arrival process draws from
	// a named stream of it, and simulated wall-clock time lives on its
	// virtual clock.
	ctx := exec.NewRoot(cfg.Seed).Child("session")
	rng := ctx.Stream("session.arrival")
	clk := ctx.Clock()
	qos := sim.QoSFor(cfg.Model.Task == dnn.Translation, cfg.Intensity)

	stats := Stats{ByLocation: make(map[sim.Location]int)}
	now := clk.Now()
	var latencySum float64
	drain := func(j float64) bool {
		if b == nil {
			return true
		}
		stats.BatteryDrainedJ += j
		return b.Drain(j) == nil
	}
	for now < cfg.DurationS {
		gap := cfg.Arrival.NextGapS(rng)
		if math.IsInf(gap, 1) || now+gap >= cfg.DurationS {
			// Idle out the remaining time.
			idle := (cfg.DurationS - now) * cfg.IdleW
			stats.IdleEnergyJ += idle
			drain(idle)
			now = cfg.DurationS
			break
		}
		now = clk.Advance(gap)
		idle := gap * cfg.IdleW
		stats.IdleEnergyJ += idle
		if !drain(idle) {
			break
		}
		meas, err := p.RunCtx(nil, cfg.Model, cfg.Env.Sample())
		if err != nil {
			return Stats{}, fmt.Errorf("session: %w", err)
		}
		now = clk.Advance(meas.LatencyS)
		stats.Inferences++
		stats.EnergyJ += meas.EnergyJ
		latencySum += meas.LatencyS
		if meas.LatencyS > qos {
			stats.QoSViolations++
		}
		stats.ByLocation[meas.Target.Location]++
		if !drain(meas.EnergyJ) {
			break
		}
	}
	stats.SimulatedS = now
	if stats.Inferences > 0 {
		stats.MeanLatencyS = latencySum / float64(stats.Inferences)
	}
	return stats, nil
}
