package sched

import (
	"fmt"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// NeuroSurgeon emulates Kang et al. (ASPLOS'17): per model it selects one
// edge–cloud partition point — run a layer prefix on the phone, ship the
// intermediate activation, finish on the server — using latency/energy
// predictions made under *no-variance* conditions (the regression models of
// the original work are trained offline). The plan is fixed per model, so
// on-device interference and signal-strength swings at runtime hit it
// unmitigated, which is exactly the weakness Fig 9 of the paper exposes.
type NeuroSurgeon struct {
	World     *sim.World
	Accuracy  float64
	Intensity sim.Intensity

	plans map[string]nsPlan
}

type nsPlan struct {
	cut   int
	local sim.Target
}

// Name implements Policy.
func (*NeuroSurgeon) Name() string { return "NeuroSurgeon" }

// RunCtx implements Policy.
func (p *NeuroSurgeon) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	plan, err := p.plan(m)
	if err != nil {
		return sim.Measurement{}, err
	}
	if plan.cut == len(m.Layers) {
		return p.World.ExecuteCtx(ctx, m, plan.local, c)
	}
	return p.World.Partitioned(m, plan.cut, plan.local, sim.Cloud, c)
}

// plan sweeps every partition point under no-variance conditions and picks
// one with the selection rule sim.Choice (most energy-efficient cut within
// QoS, else the fastest).
func (p *NeuroSurgeon) plan(m *dnn.Model) (nsPlan, error) {
	if pl, ok := p.plans[m.Name]; ok {
		return pl, nil
	}
	cond := noVariance()
	local := p.bestLocalEngine(m)
	ch := sim.Choice{QoSS: sim.QoSFor(m.Task == dnn.Translation, p.Intensity), AccTarget: p.Accuracy}
	for cut := 0; cut <= len(m.Layers); cut++ {
		var meas sim.Measurement
		var err error
		if cut == len(m.Layers) {
			if !p.World.Feasible(m, local) {
				continue
			}
			meas, err = p.World.Expected(m, local, cond)
		} else {
			meas, err = p.World.Partitioned(m, cut, local, sim.Cloud, cond)
		}
		if err != nil {
			continue // e.g. RC layers in the local prefix
		}
		ch.Offer(cut, meas)
	}
	cut, _, ok := ch.Result()
	if !ok {
		return nsPlan{}, fmt.Errorf("sched: neurosurgeon found no plan for %s", m.Name)
	}
	if p.plans == nil {
		p.plans = make(map[string]nsPlan)
	}
	best := nsPlan{cut: cut, local: local}
	p.plans[m.Name] = best
	return best, nil
}

// bestLocalEngine picks the engine NeuroSurgeon runs the local prefix on:
// the GPU when the device has one that can hold the model's prefix types,
// otherwise the CPU, always at FP32 and top frequency (the original system
// does not co-optimize DVFS or quantization).
func (p *NeuroSurgeon) bestLocalEngine(m *dnn.Model) sim.Target {
	if gpu := p.World.Device.Processor(soc.GPU); gpu != nil && !m.HasRC() {
		return sim.Target{Location: sim.Local, Kind: soc.GPU, Step: gpu.Steps - 1, Prec: dnn.FP32}
	}
	cpu := p.World.Device.Processor(soc.CPU)
	return sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}
}

// MOSAIC emulates Han et al. (PACT'19): heterogeneity- and communication-
// aware slicing of the model across the *on-device* engines. Per model it
// solves a small dynamic program assigning each layer to a local engine so
// as to minimize predicted energy including context-switch costs — again
// with predictions made under no-variance conditions, and with no offload
// path, so heavy networks and runtime variance both hurt it (Fig 9 shows
// AutoScale 1.9x ahead on average).
type MOSAIC struct {
	World    *sim.World
	Accuracy float64

	plans map[string][]sim.Slice
}

// Name implements Policy.
func (*MOSAIC) Name() string { return "MOSAIC" }

// RunCtx implements Policy. The sliced execution plan is evaluated
// on expected values, so the context carries no draws here; implementing
// the interface keeps the harness's request-derivation uniform.
func (p *MOSAIC) RunCtx(_ *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	plan, err := p.plan(m)
	if err != nil {
		return sim.Measurement{}, err
	}
	return p.World.ExpectedSliced(m, plan, c)
}

// candidate engines for slicing: each local engine at top frequency, FP32
// (or the DSP's INT8) — MOSAIC's published system slices FP32 graphs but is
// quantization-aware per processor; we admit the DSP at INT8 only when the
// accuracy constraint allows.
func (p *MOSAIC) candidates(m *dnn.Model) []sim.Target {
	var out []sim.Target
	for _, proc := range p.World.Device.Processors {
		prec := dnn.FP32
		if proc.Kind == soc.DSP {
			prec = dnn.INT8
			if p.Accuracy > 0 && m.Accuracy(prec) < p.Accuracy {
				continue
			}
		}
		if !proc.SupportsPrecision(prec) {
			continue
		}
		out = append(out, sim.Target{Location: sim.Local, Kind: proc.Kind, Step: proc.Steps - 1, Prec: prec})
	}
	return out
}

// plan runs the assignment DP under no-variance conditions.
func (p *MOSAIC) plan(m *dnn.Model) ([]sim.Slice, error) {
	if p.plans == nil {
		p.plans = make(map[string][]sim.Slice)
	}
	if pl, ok := p.plans[m.Name]; ok {
		return pl, nil
	}
	cands := p.candidates(m)
	if len(cands) == 0 {
		return nil, fmt.Errorf("sched: mosaic has no engine for %s", m.Name)
	}
	cond := noVariance()

	// Per-layer energy on each candidate engine (no-variance predictions).
	n := len(m.Layers)
	cost := make([][]float64, n)
	feasible := make([][]bool, n)
	for i, l := range m.Layers {
		cost[i] = make([]float64, len(cands))
		feasible[i] = make([]bool, len(cands))
		for j, t := range cands {
			proc := p.World.Device.Processor(t.Kind)
			if l.Type == dnn.RC && !proc.SupportsRC {
				continue
			}
			feasible[i][j] = true
			lat := layerLatencyNoVar(p.World, t, l, cond)
			cost[i][j] = lat * proc.BusyPowerW(t.Step)
		}
	}

	// switchCost[j][k]: energy of a boundary between engines j and k.
	switchCost := func(i, j, k int) float64 {
		if j == k {
			return 0
		}
		proc := p.World.Device.Processor(cands[k].Kind)
		boundary := m.Layers[i-1].ActivationBytes
		lat := 1.5e-3 + boundary/(proc.MemBWGBs*1e9)
		return lat * proc.BusyPowerW(cands[k].Step)
	}

	const inf = 1e300
	dp := make([][]float64, n)
	prev := make([][]int, n)
	for i := range dp {
		dp[i] = make([]float64, len(cands))
		prev[i] = make([]int, len(cands))
		for j := range dp[i] {
			dp[i][j] = inf
			prev[i][j] = -1
		}
	}
	for j := range cands {
		if feasible[0][j] {
			dp[0][j] = cost[0][j]
		}
	}
	for i := 1; i < n; i++ {
		for j := range cands {
			if !feasible[i][j] {
				continue
			}
			for k := range cands {
				if dp[i-1][k] >= inf {
					continue
				}
				v := dp[i-1][k] + switchCost(i, k, j) + cost[i][j]
				if v < dp[i][j] {
					dp[i][j] = v
					prev[i][j] = k
				}
			}
		}
	}
	bestJ := -1
	for j := range cands {
		if dp[n-1][j] < inf && (bestJ < 0 || dp[n-1][j] < dp[n-1][bestJ]) {
			bestJ = j
		}
	}
	if bestJ < 0 {
		return nil, fmt.Errorf("sched: mosaic DP found no feasible plan for %s", m.Name)
	}

	// Backtrack into contiguous slices.
	assign := make([]int, n)
	j := bestJ
	for i := n - 1; i >= 0; i-- {
		assign[i] = j
		if i > 0 {
			j = prev[i][j]
		}
	}
	var slices []sim.Slice
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || assign[i] != assign[start] {
			slices = append(slices, sim.Slice{From: start, To: i, Target: cands[assign[start]]})
			start = i
		}
	}
	p.plans[m.Name] = slices
	return slices, nil
}

// layerLatencyNoVar predicts one layer's latency on a local target with no
// runtime variance, via a single-layer slicing query.
func layerLatencyNoVar(w *sim.World, t sim.Target, l dnn.Layer, cond sim.Conditions) float64 {
	tmp := &dnn.Model{Name: "layer", Task: dnn.ImageClassification, Layers: []dnn.Layer{l}, InputBytes: 1, OutputBytes: 1}
	meas, err := w.ExpectedSliced(tmp, []sim.Slice{{From: 0, To: 1, Target: t}}, cond)
	if err != nil {
		return 0
	}
	return meas.LatencyS
}
