// Package sched implements the paper's comparison policies: the four fixed
// baselines of Section V-A (Edge CPU FP32, Edge Best, Cloud, Connected
// Edge), the Opt oracle, and the two prior works of Fig 9 — MOSAIC-style
// on-device layer slicing and NeuroSurgeon-style edge–cloud partitioning,
// both of which plan offline with no knowledge of stochastic runtime
// variance (their documented weakness). The oracle, Edge (Best), Connected
// Edge and NeuroSurgeon all choose through the one rule sim.Choice.
package sched

import (
	"fmt"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// Policy decides and executes one inference request, returning the measured
// outcome. Implementations may keep per-model plans but must not learn from
// runtime variance (only AutoScale does).
type Policy interface {
	// Name is the label used in figures.
	Name() string
	// RunCtx executes one inference of m under conditions c, drawing all
	// randomness from ctx's named streams, which makes every stochastic draw
	// of the request a pure function of the context identity. A nil ctx
	// draws from the world's own sequence.
	RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error)
}

// noVariance is the conditions offline planners assume.
func noVariance() sim.Conditions {
	return sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
}

// EdgeCPU always runs on the local CPU at FP32, top frequency — the paper's
// primary baseline.
type EdgeCPU struct{ World *sim.World }

// Name implements Policy.
func (EdgeCPU) Name() string { return "Edge (CPU FP32)" }

// RunCtx implements Policy.
func (p EdgeCPU) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	cpu := p.World.Device.Processor(soc.CPU)
	if cpu == nil {
		return sim.Measurement{}, fmt.Errorf("sched: device has no CPU")
	}
	t := sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}
	return p.World.ExecuteCtx(ctx, m, t, c)
}

// EdgeBest runs each model on the most energy-efficient on-device target,
// chosen offline per model under no-variance conditions subject to the QoS
// and accuracy constraints (the paper's Edge (Best) baseline).
type EdgeBest struct {
	World     *sim.World
	Accuracy  float64 // percent; 0 disables
	Intensity sim.Intensity

	plans map[string]sim.Target
}

// Name implements Policy.
func (*EdgeBest) Name() string { return "Edge (Best)" }

// Run is RunCtx(nil, m, c), kept for the benchmark ladder (bench/ladder.go).
func (p *EdgeBest) Run(m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	return p.RunCtx(nil, m, c)
}

// RunCtx implements Policy.
func (p *EdgeBest) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	t, ok := p.plans[m.Name]
	if !ok {
		var err error
		if t, err = planAt(p.World, m, sim.Local, p.Intensity, p.Accuracy); err != nil {
			return sim.Measurement{}, err
		}
		if p.plans == nil {
			p.plans = make(map[string]sim.Target)
		}
		p.plans[m.Name] = t
	}
	return p.World.ExecuteCtx(ctx, m, t, c)
}

// planAt is the offline plan of Edge (Best) and Connected Edge: the
// selection rule over the targets at loc, under no-variance conditions.
func planAt(w *sim.World, m *dnn.Model, loc sim.Location, intensity sim.Intensity, acc float64) (sim.Target, error) {
	ch := sim.Choice{QoSS: sim.QoSFor(m.Task == dnn.Translation, intensity), AccTarget: acc}
	cond := noVariance()
	ts := w.Targets(m)
	for i, t := range ts {
		if t.Location != loc {
			continue
		}
		meas, err := w.Expected(m, t, cond)
		if err != nil {
			return sim.Target{}, err
		}
		ch.Offer(i, meas)
	}
	i, _, ok := ch.Result()
	if !ok {
		return sim.Target{}, fmt.Errorf("sched: no %s target for %s", loc, m.Name)
	}
	return ts[i], nil
}

// CloudAll always offloads to the cloud, using the server GPU when it can
// run the model (the paper's Cloud baseline).
type CloudAll struct{ World *sim.World }

// Name implements Policy.
func (CloudAll) Name() string { return "Cloud" }

// RunCtx implements Policy.
func (p CloudAll) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	t := sim.Target{Location: sim.Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	if !p.World.Feasible(m, t) {
		t = sim.Target{Location: sim.Cloud, Kind: soc.CPU, Prec: dnn.FP32}
	}
	return p.World.ExecuteCtx(ctx, m, t, c)
}

// ConnectedEdge always offloads to the locally connected device, on its most
// energy-efficient engine chosen offline per model (the paper's Connected
// Edge baseline).
type ConnectedEdge struct {
	World     *sim.World
	Accuracy  float64
	Intensity sim.Intensity

	plans map[string]sim.Target
}

// Name implements Policy.
func (*ConnectedEdge) Name() string { return "Connected Edge" }

// RunCtx implements Policy.
func (p *ConnectedEdge) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	t, ok := p.plans[m.Name]
	if !ok {
		var err error
		if t, err = planAt(p.World, m, sim.Connected, p.Intensity, p.Accuracy); err != nil {
			return sim.Measurement{}, err
		}
		if p.plans == nil {
			p.plans = make(map[string]sim.Target)
		}
		p.plans[m.Name] = t
	}
	return p.World.ExecuteCtx(ctx, m, t, c)
}

// Opt is the oracular design: for every request it exhaustively evaluates
// the whole action space under the *actual* current conditions and runs the
// most energy-efficient target satisfying the QoS and accuracy constraints
// (Section V-A footnote 8), through sim.World.BestTarget.
type Opt struct {
	World     *sim.World
	Accuracy  float64
	Intensity sim.Intensity
	// AvoidDown makes the oracle fault-aware: when the world carries a
	// scripted fault injector and the policy runs with a context, targets
	// whose site is inside an outage window at the request's virtual time
	// are excluded and conditions reflect any active RSSI ramp. An oracle
	// that plans into a known outage isn't an oracle.
	AvoidDown bool
}

// Name implements Policy.
func (Opt) Name() string { return "Opt" }

// Run is RunCtx(nil, m, c), kept for the benchmark ladder (bench/ladder.go).
func (p Opt) Run(m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	return p.RunCtx(nil, m, c)
}

// RunCtx implements Policy.
func (p Opt) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	qos := sim.QoSFor(m.Task == dnn.Translation, p.Intensity)
	var (
		t   sim.Target
		err error
	)
	if p.AvoidDown && ctx != nil {
		t, _, err = p.World.BestTargetAt(ctx.Now(), m, c, qos, p.Accuracy)
	} else {
		t, _, err = p.World.BestTarget(m, c, qos, p.Accuracy)
	}
	if err != nil {
		return sim.Measurement{}, err
	}
	return p.World.ExecuteCtx(ctx, m, t, c)
}
