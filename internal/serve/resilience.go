package serve

import (
	"autoscale/internal/serve/metrics"
	"autoscale/internal/sim"
	"autoscale/internal/tracez"
)

// ResilienceConfig tunes the gateway's resilient offload path: per-target
// circuit breakers, deadline-budgeted offload retries and hedged offloads.
// The zero value disables the whole layer (Enabled false); an enabled
// config with zero fields gets the defaults below.
type ResilienceConfig struct {
	// Enabled switches the resilience layer on.
	Enabled bool
	// FailureThreshold is the consecutive offload failures at one remote
	// site that trip its breaker open (default 3).
	FailureThreshold int
	// OpenForS is how long (virtual seconds on the engine's clock) an open
	// breaker masks its site before admitting half-open probes (default 5).
	OpenForS float64
	// HalfOpenProbes is the consecutive successful probes that close a
	// half-open breaker (default 2).
	HalfOpenProbes int
	// MaxRetries bounds the deadline-budgeted offload retries after an
	// outage (default 1; negative disables retries).
	MaxRetries int
	// Hedge enables hedged offloads: when a remote answer is slower than
	// HedgeAfterS and the deadline budget allows, a local leg races it and
	// the earlier answer wins.
	Hedge bool
	// HedgeAfterS is the remote latency beyond which the local hedge leg
	// fires (default 25 ms — half the paper's 50 ms QoS budget).
	HedgeAfterS float64
}

// retryBackoffS is the base backoff before the first offload retry (2 ms),
// doubled per attempt, plus up to 50% deterministic jitter from the
// request's named RNG stream.
const retryBackoffS = 0.002

func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	if !rc.Enabled {
		return rc
	}
	if rc.FailureThreshold <= 0 {
		rc.FailureThreshold = 3
	}
	if rc.OpenForS <= 0 {
		rc.OpenForS = 5
	}
	if rc.HalfOpenProbes <= 0 {
		rc.HalfOpenProbes = 2
	}
	if rc.MaxRetries == 0 {
		rc.MaxRetries = 1
	}
	if rc.HedgeAfterS <= 0 {
		rc.HedgeAfterS = 0.025
	}
	return rc
}

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breaker is one (worker, remote site) circuit breaker, keyed on the
// engine's virtual clock. Closed: offloads flow and consecutive failures
// count. Open: the site is masked out of the action space until OpenForS
// has elapsed. Half-open: the site is unmasked so the policy can probe it;
// HalfOpenProbes consecutive successes close it, any failure reopens it.
//
// A breaker is only touched under its lane's mutex (the gateway serializes
// each device's requests) and by Shutdown once every lane has stopped, so
// it needs no lock of its own; it reports into its lane's metrics
// registry, which is atomic.
type breaker struct {
	label string
	cfg   ResilienceConfig
	met   *metrics.Registry
	// rec, when non-nil, receives one flight-recorder event per state
	// transition, stamped on the virtual clock the transition happened at.
	rec      *tracez.FlightRecorder
	state    breakerState
	failures int // consecutive failures while closed
	probes   int // consecutive successes while half-open
	// openedAt is the cool-off origin: the virtual time of the most recent
	// closed/half-open -> open transition.
	openedAt float64
	// degradedSince is the start of the current degraded episode (the first
	// trip); it survives reopen cycles and is closed out — into the
	// degraded-seconds metric — when the breaker finally closes.
	degradedSince float64
}

func newBreaker(device string, loc sim.Location, cfg ResilienceConfig, met *metrics.Registry, rec *tracez.FlightRecorder) *breaker {
	b := &breaker{label: device + "/" + loc.String(), cfg: cfg, met: met, rec: rec}
	met.SetBreakerState(b.label, b.state.String())
	return b
}

// setState is the single transition choke point: every state change updates
// the metrics gauge and, when a flight recorder is wired, lands one
// "breaker" event carrying the edge (prev->next) at virtual time now.
func (b *breaker) setState(now float64, s breakerState) {
	prev := b.state
	b.state = s
	b.met.SetBreakerState(b.label, s.String())
	if prev != s {
		b.rec.Note(now, "breaker", b.label, prev.String()+"->"+s.String())
	}
}

// allow reports whether the site may receive offloads at virtual time now,
// transitioning open->half-open once the cool-off has elapsed.
func (b *breaker) allow(now float64) bool {
	if b.state == breakerOpen && now-b.openedAt >= b.cfg.OpenForS {
		b.probes = 0
		b.met.IncBreakerHalfOpen()
		b.setState(now, breakerHalfOpen)
	}
	return b.state != breakerOpen
}

// recordSuccess feeds one clean offload outcome at virtual time now.
func (b *breaker) recordSuccess(now float64) {
	switch b.state {
	case breakerClosed:
		b.failures = 0
	case breakerHalfOpen:
		b.probes++
		if b.probes >= b.cfg.HalfOpenProbes {
			b.failures = 0
			b.met.IncBreakerClose()
			b.met.AddDegradedSeconds(now - b.degradedSince)
			b.setState(now, breakerClosed)
		}
	}
}

// recordFailure feeds one failed offload outcome at virtual time now.
func (b *breaker) recordFailure(now float64) {
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.openedAt, b.degradedSince = now, now
			b.met.IncBreakerOpen()
			b.setState(now, breakerOpen)
		}
	case breakerHalfOpen:
		// A failed probe reopens immediately; the degraded episode keeps
		// accumulating from the original trip.
		b.openedAt = now
		b.met.IncBreakerOpen()
		b.setState(now, breakerOpen)
	}
}

// closeOut flushes an unfinished degraded episode at shutdown time.
func (b *breaker) closeOut(now float64) {
	if b.state != breakerClosed {
		b.met.AddDegradedSeconds(now - b.degradedSince)
	}
}
