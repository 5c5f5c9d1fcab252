package core

import (
	"fmt"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// Layer-granularity partition actions — the paper's footnote 4 extension:
// "model partitioning at layer granularity is complementary to and can be
// applied on top of AutoScale". When enabled, the action space grows by a
// small set of partition-point actions (run a prefix of the model locally,
// ship the boundary activation, finish remotely); the Q-table learns when a
// split beats both pure-local and pure-offload execution, exactly as it
// learns everything else.

// partitionSpec describes one partition action: the fraction of layers that
// stays local and the remote location that finishes the model.
type partitionSpec struct {
	cutFrac float64
	remote  sim.Location
}

// partitionCutFracs are the candidate split points. Finer grids grow the
// action space (and training time) linearly; quarter points capture the
// useful region (NeuroSurgeon-style sweeps show the optimum is flat).
var partitionCutFracs = []float64{0.25, 0.50, 0.75}

// partitionRemotes are the locations a split can finish on.
var partitionRemotes = []sim.Location{sim.Connected, sim.Cloud}

// appendPartitionActions extends the targets list with placeholders for the
// partition actions and records their specs. The placeholder target names
// the remote location so displays stay meaningful.
func (a *ActionSpace) appendPartitionActions() {
	for _, remote := range partitionRemotes {
		for _, frac := range partitionCutFracs {
			a.partitions = append(a.partitions, partitionSpec{cutFrac: frac, remote: remote})
			a.targets = append(a.targets, sim.Target{Location: remote, Kind: soc.GPU, Prec: dnn.FP32})
		}
	}
}

// IsPartition reports whether action index i is a partition action.
func (a *ActionSpace) IsPartition(i int) bool {
	return i >= a.Len()-len(a.partitions) && i < a.Len()
}

// partitionAt returns the spec of partition action i.
func (a *ActionSpace) partitionAt(i int) partitionSpec {
	return a.partitions[i-(a.Len()-len(a.partitions))]
}

// Describe renders action i, including the partition annotation.
func (a *ActionSpace) Describe(i int) string {
	if a.IsPartition(i) {
		p := a.partitionAt(i)
		return fmt.Sprintf("partition@%.0f%%->%s", p.cutFrac*100, p.remote)
	}
	return a.targets[i].String()
}

// partitionLocal picks the engine the local prefix runs on: the GPU when the
// model has no recurrent layers, else the CPU — both FP32 at top frequency
// (matching the NeuroSurgeon-style comparator so the comparison is fair).
func (a *ActionSpace) partitionLocal(m *dnn.Model) sim.Target {
	if gpu := a.world.Device.Processor(soc.GPU); gpu != nil && !m.HasRC() {
		return sim.Target{Location: sim.Local, Kind: soc.GPU, Step: gpu.Steps - 1, Prec: dnn.FP32}
	}
	cpu := a.world.Device.Processor(soc.CPU)
	return sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}
}

// ExecuteCtx runs action i for model m under conditions c, covering both
// whole-model targets and partition actions. A nil ctx draws from the
// world's internal sequence.
func (a *ActionSpace) ExecuteCtx(ctx *exec.Context, m *dnn.Model, i int, c sim.Conditions) (sim.Measurement, error) {
	if i < 0 || i >= a.Len() {
		return sim.Measurement{}, fmt.Errorf("core: action %d out of range", i)
	}
	if !a.IsPartition(i) {
		return a.world.ExecuteCtx(ctx, m, a.targets[i], c)
	}
	p := a.partitionAt(i)
	cut := int(p.cutFrac * float64(len(m.Layers)))
	if cut < 1 {
		cut = 1
	}
	if cut >= len(m.Layers) {
		cut = len(m.Layers) - 1
	}
	return a.world.Partitioned(m, cut, a.partitionLocal(m), p.remote, c)
}

// partitionFeasible reports whether partition action i can run model m: the
// local prefix engine must be able to execute the prefix layers.
func (a *ActionSpace) partitionFeasible(m *dnn.Model, i int) bool {
	local := a.partitionLocal(m)
	proc := a.world.Device.Processor(local.Kind)
	if proc == nil {
		return false
	}
	if m.HasRC() && !proc.SupportsRC {
		return false
	}
	return len(m.Layers) >= 2
}
