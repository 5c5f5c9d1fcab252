// Package perf is the latency model of the simulator: it converts a model's
// layers, an execution configuration (processor, DVFS step, precision), and
// the current interference conditions into per-layer and end-to-end compute
// latencies. The model is a roofline per layer — compute time versus memory
// time, whichever dominates — plus a per-layer dispatch overhead, scaled by
// DVFS, precision, thermal throttling, and co-runner contention. Its purpose
// is to reproduce the *relative* processor/layer profiles of Fig 3 of the
// paper, which is what drives every scheduling decision.
package perf

import (
	"errors"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/soc"
)

// Exec is one execution configuration on a specific engine.
type Exec struct {
	Proc *soc.Processor
	// Step is the DVFS step (0 = slowest); ignored by single-step engines.
	Step int
	// Prec is the numeric precision to run at.
	Prec dnn.Precision
}

// Validate checks that the configuration is executable at all (precision
// supported, step meaningful). Model compatibility (RC layers) is checked
// per model by CanRun.
func (e Exec) Validate() error {
	if e.Proc == nil {
		return errors.New("perf: nil processor")
	}
	if !e.Proc.SupportsPrecision(e.Prec) {
		return errors.New("perf: precision not supported by " + e.Proc.Name)
	}
	return nil
}

// CanRun reports whether the configuration can execute model m.
func (e Exec) CanRun(m *dnn.Model) bool {
	return e.Proc != nil && e.Proc.CanRun(m, e.Prec)
}

// LayerLatency returns the latency in seconds of one layer under the given
// interference penalties.
func LayerLatency(e Exec, l dnn.Layer, pen interfere.Penalties) float64 {
	p := e.Proc

	// Effective compute rate: peak MACs x DVFS frequency x thermal cap x
	// layer-type efficiency x precision speedup, shared with co-runners on
	// the CPU and DMA-stalled on co-processors under memory pressure.
	freq := p.FreqRatio(e.Step)
	throttle := 1.0
	if p.Kind == soc.CPU {
		throttle = soc.ThrottleFactor(soc.CPU, pen.SustainedCPUUtil)
	}
	rate := p.PeakGMACs * 1e9 * freq * throttle * p.Eff(l.Type) * p.PrecisionSpeedup(e.Prec)
	if p.Kind == soc.CPU {
		rate *= pen.CPUShare
		rate /= pen.CPUComputeSlowdown
	} else {
		rate /= pen.CoprocSlowdown
	}
	tCompute := l.MACs / rate

	// Memory time: weights and activations at the precision's footprint
	// over the engine's effective bandwidth, inflated by memory-hog
	// co-runners. Bandwidth does not scale with engine frequency.
	bytes := (l.WeightBytes + l.ActivationBytes) * e.Prec.BytesPerValue() / 4
	tMem := bytes / (p.MemBWGBs * 1e9) * pen.MemSlowdown

	// Roofline: the layer is bound by the slower of the two paths, plus
	// the fixed dispatch overhead for this layer type.
	t := tCompute
	if tMem > t {
		t = tMem
	}
	return t + p.Overhead(l.Type)
}

// ModelLatency returns the end-to-end compute latency of m (excluding any
// network transfer, which the sim package adds for offloaded targets).
func ModelLatency(e Exec, m *dnn.Model, pen interfere.Penalties) float64 {
	var t float64
	for _, l := range m.Layers {
		t += LayerLatency(e, l, pen)
	}
	return t
}

// Plan is the roofline of one model on one engine at one precision with
// every term that depends on neither the DVFS step nor the interference
// penalties folded in at Compile time. Latency evaluates it with the same
// floating-point operations in the same order as summing LayerLatency over
// the layers, so the two agree bit for bit; LayerLatency and ModelLatency
// stay as the reference the tests compare against and as the per-layer
// primitive of the partitioning and slicing modes.
type Plan struct {
	proc     *soc.Processor
	speedup  float64
	eff      [dnn.NumLayerTypes]float64
	overhead [dnn.NumLayerTypes]float64
	// layers is the model's own layer list; memS, the one per-plan column,
	// is bytes/(MemBWGBs*1e9) per layer at the plan's precision.
	layers []dnn.Layer
	memS   []float64
}

// Compile builds the plan of m on e.Proc at e.Prec for every DVFS step
// (e.Step is ignored). m must have passed Validate: the per-type tables are
// indexed by layer type.
func Compile(e Exec, m *dnn.Model) *Plan {
	p := &Plan{
		proc: e.Proc, speedup: e.Proc.PrecisionSpeedup(e.Prec),
		layers: m.Layers, memS: make([]float64, len(m.Layers)),
	}
	for t := range p.eff {
		p.eff[t] = e.Proc.Eff(dnn.LayerType(t))
		p.overhead[t] = e.Proc.Overhead(dnn.LayerType(t))
	}
	for i, l := range m.Layers {
		bytes := (l.WeightBytes + l.ActivationBytes) * e.Prec.BytesPerValue() / 4
		p.memS[i] = bytes / (e.Proc.MemBWGBs * 1e9)
	}
	return p
}

// Latency returns ModelLatency of the compiled configuration at the given
// DVFS step under the given penalties: one compute rate per layer type,
// associated exactly as LayerLatency associates it, then per layer one
// divide, one multiply, one max and two adds.
func (p *Plan) Latency(step int, pen interfere.Penalties) float64 {
	proc := p.proc
	cpu := proc.Kind == soc.CPU
	throttle := 1.0
	if cpu {
		throttle = soc.ThrottleFactor(soc.CPU, pen.SustainedCPUUtil)
	}
	base := proc.PeakGMACs * 1e9 * proc.FreqRatio(step) * throttle
	var rate [dnn.NumLayerTypes]float64
	for t := range rate {
		r := base * p.eff[t] * p.speedup
		if cpu {
			r *= pen.CPUShare
			r /= pen.CPUComputeSlowdown
		} else {
			r /= pen.CoprocSlowdown
		}
		rate[t] = r
	}
	var sum float64
	for i := range p.layers {
		l := &p.layers[i]
		t := l.MACs / rate[l.Type]
		if tMem := p.memS[i] * pen.MemSlowdown; tMem > t {
			t = tMem
		}
		sum += t + p.overhead[l.Type]
	}
	return sum
}

// LatencyByType aggregates per-layer latency by layer type — the quantity
// Fig 3 of the paper plots.
func LatencyByType(e Exec, m *dnn.Model, pen interfere.Penalties) map[dnn.LayerType]float64 {
	out := make(map[dnn.LayerType]float64)
	for _, l := range m.Layers {
		out[l.Type] += LayerLatency(e, l, pen)
	}
	return out
}

// NoInterference returns the penalty set of an otherwise idle device.
func NoInterference() interfere.Penalties {
	return interfere.PenaltiesFor(interfere.Load{})
}
