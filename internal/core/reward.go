package core

import (
	"math"

	"autoscale/internal/exec"
	"autoscale/internal/sim"
)

// RewardConfig parameterizes equation (5) of the paper.
type RewardConfig struct {
	// QoSTargetS is the latency constraint in seconds.
	QoSTargetS float64
	// AccuracyTarget is the inference quality requirement in percent;
	// zero disables the accuracy constraint.
	AccuracyTarget float64
	// Alpha is the latency weight (paper: 0.1).
	Alpha float64
	// Beta is the accuracy weight (paper: 0.1).
	Beta float64
}

// Reward units: the paper mixes raw measurements. To make energy the
// dominant discriminating term (as the paper's converged behaviour implies),
// Renergy enters in millijoules and Raccuracy in percent, so the
// accuracy-miss penalty Raccuracy - 100 stays on the paper's percent scale.
//
// Deviation, documented in DESIGN.md: equation (5) as printed adds
// +alpha*Rlatency (the raw measured latency) when QoS is met. Taken
// literally with raw magnitudes, that term *rewards slower* satisfying
// targets and prices the QoS constraint itself at only a few millijoules, so
// the converged policy would prefer a cheaper QoS-violating target — the
// opposite of the paper's measured behaviour (AutoScale within 1.9% of Opt's
// violation ratio). We therefore award the latency term at the constraint
// boundary — alpha * QoS(in ms) when the constraint is met, zero otherwise —
// which is identical to the paper's term for a target sitting exactly at the
// QoS limit and constant (hence distortion-free) across satisfying targets.
// The paper itself notes "we can use higher weights if the inference
// workload requires higher performance"; the default Alpha is 1.0.

// accuracyMissScale multiplies the paper's accuracy-miss penalty
// (Raccuracy - 100). At the millijoule energy scale of this simulator the
// raw penalty (at most -100) can be *larger* than the reward of a heavy but
// valid target, which would teach the engine to violate the accuracy
// constraint; the scale keeps the paper's ordering among missing targets
// while making every miss strictly worse than any valid execution.
const accuracyMissScale = 100

// Reward computes equation (5) for a measured outcome:
//
//	if Raccuracy < quality requirement:  R = (Raccuracy - 100) * scale
//	else if Rlatency < QoS constraint:   R = -Renergy + alpha*QoS + beta*Raccuracy
//	else:                                R = -Renergy + beta*Raccuracy
//
// energyJ is the *estimated* energy (eqs (1)-(4) applied to the measured
// latency), latencyS the measured latency, accuracy the stored accuracy of
// the chosen target.
func (c RewardConfig) Reward(energyJ, latencyS, accuracy float64) float64 {
	if c.AccuracyTarget > 0 && accuracy < c.AccuracyTarget {
		return (accuracy - 100) * accuracyMissScale
	}
	energyMJ := energyJ * 1e3
	if latencyS < c.QoSTargetS {
		return -energyMJ + c.Alpha*c.QoSTargetS*1e3 + c.Beta*accuracy
	}
	return -energyMJ + c.Beta*accuracy
}

// EnergyEstimator produces AutoScale's Renergy: the power models of
// equations (1)-(4) applied to the measured latency. The simulator computes
// those same equations as ground truth, so the estimator is the truth plus a
// zero-mean relative error calibrated to the paper's reported 7.3% MAPE.
type EnergyEstimator struct {
	// sigma of the multiplicative Gaussian error. For a zero-mean
	// Gaussian, MAPE = sigma * sqrt(2/pi), so sigma = MAPE/sqrt(2/pi).
	sigma float64
}

// PaperEnergyMAPE is the estimation error the paper reports for Renergy.
const PaperEnergyMAPE = 0.073

// NewEnergyEstimator creates an estimator with the given MAPE (fraction,
// e.g. 0.073). A non-positive MAPE yields a perfect estimator.
func NewEnergyEstimator(mape float64) *EnergyEstimator {
	sigma := 0.0
	if mape > 0 {
		sigma = mape / math.Sqrt(2/math.Pi)
	}
	return &EnergyEstimator{sigma: sigma}
}

// Estimate returns Renergy with the estimation error drawn from the request
// context's "core.energy-est" stream, making the estimate a pure function of
// (context identity, measurement).
func (e *EnergyEstimator) Estimate(ctx *exec.Context, meas sim.Measurement) float64 {
	if e.sigma == 0 {
		return e.estimate(nil, meas) // no draw needed; skip the stream
	}
	rng := ctx.GetStream("core.energy-est")
	est := e.estimate(rng, meas)
	exec.PutStream(rng)
	return est
}

func (e *EnergyEstimator) estimate(rng *exec.Rand, meas sim.Measurement) float64 {
	est := meas.EnergyJ
	if e.sigma > 0 {
		est *= 1 + e.sigma*rng.NormFloat64()
		if est < 0 {
			est = 0
		}
	}
	return est
}
