// Package soc simulates the mobile and server systems-on-chip of the paper's
// testbed (Table II): processors with DVFS ladders and power curves, and the
// devices that aggregate them. The simulator reproduces the *relative*
// per-layer latency and power profiles that drive the paper's findings — the
// exact silicon is simulated, not measured.
package soc

import (
	"fmt"

	"autoscale/internal/dnn"
)

// Kind classifies a processor.
type Kind int

// Processor kinds available as AutoScale actions. NPU and TPU realize the
// paper's Section V-C extension note: "additional actions, such as mobile
// NPU or cloud TPU, could be further considered".
const (
	CPU Kind = iota
	GPU
	DSP
	NPU
	TPU
)

// String returns the conventional kind name.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case DSP:
		return "DSP"
	case NPU:
		return "NPU"
	case TPU:
		return "TPU"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Processor models one execution engine of an SoC: a DVFS ladder, a power
// curve fitted to the Table II peak powers, a peak MAC rate, and per-layer
// efficiency/overhead profiles that encode which layer types the engine is
// good at (Fig 3 of the paper).
type Processor struct {
	// Name identifies the engine (e.g. "Adreno 630").
	Name string
	// Kind is the engine class.
	Kind Kind
	// Steps is the number of DVFS voltage/frequency steps (Table II).
	// DSPs have a single step: the paper does not apply DVFS to them.
	Steps int
	// MaxFreqGHz is the frequency at the top step.
	MaxFreqGHz float64
	// MinFreqRatio is the bottom step's frequency as a fraction of max.
	MinFreqRatio float64
	// PeakBusyW is the busy power at the top step (Table II parenthesis).
	PeakBusyW float64
	// IdleW is the idle power of the engine.
	IdleW float64
	// PeakGMACs is the sustained MAC rate (in 1e9 MAC/s) at the top step
	// in the engine's native precision for a perfectly suited layer.
	PeakGMACs float64
	// MemBWGBs is the effective memory bandwidth available to inference.
	MemBWGBs float64
	// LayerEff scales PeakGMACs per layer type; FC inefficiency on
	// co-processors is what makes FC-heavy networks CPU-friendly.
	LayerEff map[dnn.LayerType]float64
	// LayerOverheadS is the per-layer dispatch/synchronization overhead in
	// seconds per layer type (kernel launches, data marshalling).
	LayerOverheadS map[dnn.LayerType]float64
	// Precisions lists the numeric formats the engine executes.
	Precisions []dnn.Precision
	// SupportsRC reports whether the engine's runtime can execute
	// recurrent layers (mobile co-processor middleware cannot; paper
	// footnote 3).
	SupportsRC bool
}

// voltage range of the simulated DVFS ladders, relative to nominal.
const (
	vMinRatio = 0.60
	vMaxRatio = 1.00
)

// FreqRatio returns the frequency of DVFS step i as a fraction of the top
// frequency. Steps are 0 (slowest) through Steps-1 (fastest). Out-of-range
// steps are clamped.
func (p *Processor) FreqRatio(step int) float64 {
	step = clampStep(step, p.Steps)
	if p.Steps <= 1 {
		return 1
	}
	return p.MinFreqRatio + (1-p.MinFreqRatio)*float64(step)/float64(p.Steps-1)
}

// VoltRatio returns the relative supply voltage at DVFS step i, scaling
// linearly from vMinRatio to vMaxRatio with frequency as on real rails.
func (p *Processor) VoltRatio(step int) float64 {
	step = clampStep(step, p.Steps)
	if p.Steps <= 1 {
		return vMaxRatio
	}
	return vMinRatio + (vMaxRatio-vMinRatio)*float64(step)/float64(p.Steps-1)
}

// BusyPowerW returns the busy power at DVFS step i following the classical
// P = Pidle + (Ppeak-Pidle)·(V/Vmax)²·(f/fmax) dynamic-power model.
func (p *Processor) BusyPowerW(step int) float64 {
	v := p.VoltRatio(step) / vMaxRatio
	f := p.FreqRatio(step)
	return p.IdleW + (p.PeakBusyW-p.IdleW)*v*v*f
}

// Eff returns the layer-type efficiency factor (defaults to 0.5 for types
// not in the profile).
func (p *Processor) Eff(t dnn.LayerType) float64 {
	if e, ok := p.LayerEff[t]; ok {
		return e
	}
	return 0.5
}

// Overhead returns the per-layer dispatch overhead for a layer type.
func (p *Processor) Overhead(t dnn.LayerType) float64 { return p.LayerOverheadS[t] }

// SupportsPrecision reports whether the engine executes precision pr.
func (p *Processor) SupportsPrecision(pr dnn.Precision) bool {
	for _, q := range p.Precisions {
		if q == pr {
			return true
		}
	}
	return false
}

// PrecisionSpeedup returns the compute-rate multiplier of running at
// precision pr relative to the engine's FP32 rate. Mobile CPUs gain from
// INT8 dot-product instructions; GPUs from FP16 packed math; DSPs are
// INT8-native so their PeakGMACs already is the INT8 rate.
func (p *Processor) PrecisionSpeedup(pr dnn.Precision) float64 {
	switch p.Kind {
	case CPU:
		if pr == dnn.INT8 {
			return 2.5
		}
	case GPU:
		if pr == dnn.FP16 {
			return 1.8
		}
	case DSP, NPU, TPU:
		return 1 // fixed-function engines run at their native rate
	}
	return 1
}

// CanRun reports whether the engine can execute the model at the precision:
// the precision must be supported and recurrent layers require RC support.
func (p *Processor) CanRun(m *dnn.Model, pr dnn.Precision) bool {
	if !p.SupportsPrecision(pr) {
		return false
	}
	if m.HasRC() && !p.SupportsRC {
		return false
	}
	return true
}

// Validate checks the profile invariants.
func (p *Processor) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("soc: processor has no name")
	case p.Steps < 1:
		return fmt.Errorf("soc: %s has %d DVFS steps", p.Name, p.Steps)
	case p.MaxFreqGHz <= 0:
		return fmt.Errorf("soc: %s has non-positive frequency", p.Name)
	case p.MinFreqRatio <= 0 || p.MinFreqRatio > 1:
		return fmt.Errorf("soc: %s has MinFreqRatio outside (0,1]", p.Name)
	case p.PeakBusyW <= p.IdleW:
		return fmt.Errorf("soc: %s peak power below idle", p.Name)
	case p.PeakGMACs <= 0 || p.MemBWGBs <= 0:
		return fmt.Errorf("soc: %s has non-positive rate", p.Name)
	case len(p.Precisions) == 0:
		return fmt.Errorf("soc: %s supports no precision", p.Name)
	}
	return nil
}

func clampStep(step, steps int) int {
	if step < 0 {
		return 0
	}
	if step >= steps {
		return steps - 1
	}
	return step
}
