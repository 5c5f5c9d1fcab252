package autoscale

import (
	"autoscale/internal/exp"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
)

// Train runs the paper's training protocol on an engine: runsPerState
// epsilon-greedy inference runs for every model in every runtime-variance
// state of the Table I grid (the paper uses 100).
func Train(e *Engine, models []*DNNModel, runsPerState int, seed int64) error {
	return exp.TrainEngine(e, exp.TrainConfig{
		Models:       models,
		RunsPerState: runsPerState,
		Intensity:    e.Config().Intensity,
		Accuracy:     e.Config().Reward.AccuracyTarget,
		Seed:         seed,
	})
}

// NewTrainedEngine builds an engine for the world and trains it on the full
// zoo with the paper's protocol.
func NewTrainedEngine(w *World, cfg EngineConfig, runsPerState int, seed int64) (*Engine, error) {
	return exp.NewTrainedEngine(w, cfg, exp.TrainConfig{
		Models:       Models(),
		RunsPerState: runsPerState,
		Intensity:    cfg.Intensity,
		Accuracy:     cfg.Reward.AccuracyTarget,
		Seed:         seed,
	})
}

// AsPolicy adapts an engine to the Policy interface so it can be evaluated
// alongside the baselines.
func AsPolicy(e *Engine) Policy { return &exp.AutoScalePolicy{Engine: e} }

// Baselines constructs the paper's comparison policies for a world:
// Edge (CPU FP32), Edge (Best), Cloud, Connected Edge, and the Opt oracle.
func Baselines(w *World, intensity Intensity) []Policy {
	return exp.Baselines(w, intensity, 0)
}

// PriorWork constructs the MOSAIC- and NeuroSurgeon-style comparators.
func PriorWork(w *World, intensity Intensity) []Policy {
	return []Policy{
		&sched.MOSAIC{World: w},
		&sched.NeuroSurgeon{World: w, Intensity: intensity},
	}
}

// Opt returns the oracle policy for a world.
func Opt(w *World, intensity Intensity) Policy {
	return sched.Opt{World: w, Intensity: intensity}
}

// QoSFor returns the latency target (seconds) of the paper's application
// scenarios for a model and usage intensity.
func QoSFor(m *DNNModel, intensity Intensity) float64 {
	return sim.QoSFor(m.Task == Translation, intensity)
}
