// Package plan is the model-driven capacity planner above the routing tier:
// the slow control loop that decides how much capacity should exist while
// the per-request RL scheduler (internal/core) decides how to spend it.
//
// Three pieces close the loop. Estimation reads per-class arrival rates and
// the fleet-wide mean service time from the routing tier's admission
// counters and the seqlock metrics registry — pure counter deltas smoothed
// by EWMA, no instrumentation of its own. An Erlang-C/M/M/c occupancy model
// maps (λ, 1/μ, c lanes) to predicted wait and occupancy, and is calibrated
// against measured lane occupancy with a reported error. Actuation applies
// the plan through the router's narrow setters: active worker lanes, the
// global in-flight budget, per-class queue depths, DRR weights and
// admission-wait gates — each clamped and rate-limited, never mid-request.
//
// Determinism: the planner ticks on the caller-supplied virtual arrival
// clock, draws no random numbers and reads no wall clock, so a fixed-seed
// run replays its plan decisions byte-identically.
package plan

import "math"

// ErlangB returns the Erlang-B blocking probability for c servers at
// offered load a = λ/μ, via the standard stable recurrence
// B(0) = 1, B(k) = a·B(k-1) / (k + a·B(k-1)).
func ErlangB(c int, a float64) float64 {
	if c <= 0 || a <= 0 {
		return 1
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability an arrival waits (all c servers busy) in
// an M/M/c queue at offered load a = λ/μ. Returns 1 for an unstable or
// degenerate system (a >= c).
func ErlangC(c int, a float64) float64 {
	if c <= 0 || a <= 0 {
		return 1
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1
	}
	b := ErlangB(c, a)
	return b / (1 - rho + rho*b)
}

// MMC is one M/M/c queueing scenario: Poisson arrivals at LambdaHz,
// exponential service at rate MuHz per server, Servers parallel servers.
// Worker lanes map to servers: each lane is a single-server FIFO on the
// virtual clock, and unpinned routing spreads arrivals across active lanes.
type MMC struct {
	LambdaHz float64
	MuHz     float64
	Servers  int
}

// OfferedLoad returns a = λ/μ in Erlangs.
func (m MMC) OfferedLoad() float64 {
	if m.MuHz <= 0 {
		return math.Inf(1)
	}
	return m.LambdaHz / m.MuHz
}

// Occupancy returns ρ = λ/(c·μ), the predicted busy fraction per server.
// May exceed 1 for an overloaded system.
func (m MMC) Occupancy() float64 {
	if m.Servers <= 0 || m.MuHz <= 0 {
		return math.Inf(1)
	}
	return m.LambdaHz / (float64(m.Servers) * m.MuHz)
}

// Stable reports whether the queue has a steady state (ρ < 1).
func (m MMC) Stable() bool { return m.Occupancy() < 1 }

// WaitProbability returns P(wait > 0), the Erlang-C probability.
func (m MMC) WaitProbability() float64 { return ErlangC(m.Servers, m.OfferedLoad()) }

// MeanWaitS returns the expected queueing delay Wq = C(c,a)/(c·μ − λ)
// seconds; +Inf for an unstable system.
func (m MMC) MeanWaitS() float64 {
	if !m.Stable() {
		return math.Inf(1)
	}
	drain := float64(m.Servers)*m.MuHz - m.LambdaHz
	return m.WaitProbability() / drain
}

// RequiredServers returns the smallest server count whose predicted mean
// wait meets targetWaitS at arrival rate lambdaHz and per-server service
// rate muHz, capped at maxServers (returned when even that many cannot meet
// the target — the caller clamps to physical capacity anyway). A
// non-positive target asks only for stability.
func RequiredServers(lambdaHz, muHz, targetWaitS float64, maxServers int) int {
	if lambdaHz <= 0 || muHz <= 0 {
		return 1
	}
	if maxServers < 1 {
		maxServers = 1
	}
	for c := 1; c <= maxServers; c++ {
		m := MMC{LambdaHz: lambdaHz, MuHz: muHz, Servers: c}
		if !m.Stable() {
			continue
		}
		if targetWaitS <= 0 || m.MeanWaitS() <= targetWaitS {
			return c
		}
	}
	return maxServers
}
