package core

import (
	"sync"
	"sync/atomic"

	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// ActionSpace is the fixed, index-stable list of execution targets AutoScale
// chooses among for a given world (Section V-C): every local engine at every
// DVFS step and supported precision — the DVFS- and quantization-augmented
// actions — plus the connected-edge and cloud engines. For the Mi8Pro world
// this yields the paper's ~66 actions.
//
// The per-model mask cache is copy-on-write: lookups load an immutable map
// through an atomic pointer (lock-free, so engines can read masks outside
// their own mutex), inserts copy-and-republish under masksMu. The model set
// is tiny and fixed after warmup, so copies are rare.
type ActionSpace struct {
	targets    []sim.Target
	world      *sim.World
	masks      atomic.Pointer[map[string][]bool]
	masksMu    sync.Mutex
	partitions []partitionSpec
}

// NewActionSpace enumerates the standard action space of world w.
func NewActionSpace(w *sim.World) *ActionSpace {
	var targets []sim.Target
	for _, p := range w.Device.Processors {
		for _, prec := range p.Precisions {
			for step := 0; step < p.Steps; step++ {
				targets = append(targets, sim.Target{Location: sim.Local, Kind: p.Kind, Step: step, Prec: prec})
			}
		}
	}
	for _, loc := range []sim.Location{sim.Connected, sim.Cloud} {
		var sys *soc.Device
		if loc == sim.Connected {
			sys = w.Tablet
		} else {
			sys = w.Server
		}
		for _, p := range sys.Processors {
			prec := dnn.FP32
			if p.Kind == soc.DSP || p.Kind == soc.NPU {
				prec = dnn.INT8
			}
			targets = append(targets, sim.Target{Location: loc, Kind: p.Kind, Prec: prec})
		}
	}
	a := &ActionSpace{targets: targets, world: w}
	empty := make(map[string][]bool)
	a.masks.Store(&empty)
	return a
}

// NewActionSpaceWithPartitions enumerates the standard action space plus the
// layer-granularity partition actions of the paper's footnote 4 extension.
func NewActionSpaceWithPartitions(w *sim.World) *ActionSpace {
	a := NewActionSpace(w)
	a.appendPartitionActions()
	return a
}

// Len returns the number of actions.
func (a *ActionSpace) Len() int { return len(a.targets) }

// Target returns the execution target of action index i.
func (a *ActionSpace) Target(i int) sim.Target { return a.targets[i] }

// Targets returns a copy of the full target list.
func (a *ActionSpace) Targets() []sim.Target { return append([]sim.Target(nil), a.targets...) }

// Index returns the action index of target t, or -1.
func (a *ActionSpace) Index(t sim.Target) int {
	for i, u := range a.targets {
		if u == t {
			return i
		}
	}
	return -1
}

// Mask returns the feasibility mask of model m: actions whose engine cannot
// execute the model (recurrent layers on mobile co-processors, unsupported
// precisions) are disabled. Masks are cached per model name and must not be
// mutated by callers. Cache hits are lock-free.
func (a *ActionSpace) Mask(m *dnn.Model) []bool {
	if cached, ok := (*a.masks.Load())[m.Name]; ok {
		return cached
	}
	mask := make([]bool, len(a.targets))
	for i, t := range a.targets {
		if a.IsPartition(i) {
			mask[i] = a.partitionFeasible(m, i)
			continue
		}
		mask[i] = a.world.Feasible(m, t)
	}
	a.masksMu.Lock()
	defer a.masksMu.Unlock()
	old := *a.masks.Load()
	if cached, ok := old[m.Name]; ok {
		return cached // lost the insert race; keep the published slice
	}
	next := make(map[string][]bool, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[m.Name] = mask
	a.masks.Store(&next)
	return mask
}

// MaskWithBuf returns the feasibility mask of model m intersected with an
// additional allow predicate over targets. Nothing in the module passes a
// non-nil allow any more; the method is kept, with its signature, because
// the benchmark ladder's core.mask_ns rung calls it (bench/ladder.go:235).
// The per-model cache is never mutated: the filtered mask is written into a
// caller-owned scratch buffer (grown through *buf as needed), so
// steady-state filtered masks allocate nothing. The returned slice aliases *buf when allow is
// non-nil and must be consumed before the next call with the same buffer.
// If the intersection would disable every action, the unfiltered mask is
// returned instead: degrading to a full action space beats bricking
// selection entirely.
func (a *ActionSpace) MaskWithBuf(m *dnn.Model, allow func(sim.Target) bool, buf *[]bool) []bool {
	if allow == nil {
		return a.Mask(m)
	}
	if cap(*buf) < len(a.targets) {
		*buf = make([]bool, len(a.targets))
	}
	out := (*buf)[:len(a.targets)]
	base := a.Mask(m)
	any := false
	for i, ok := range base {
		out[i] = false
		if ok && allow(a.targets[i]) {
			out[i] = true
			any = true
		}
	}
	if !any {
		copy(out, base)
	}
	return out
}
