package sim

import (
	"fmt"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/perf"
	"autoscale/internal/power"
	"autoscale/internal/soc"
)

// This file adds layer-granularity execution modes used by the prior-work
// comparators of Fig 9: NeuroSurgeon-style edge–cloud partitioning (run a
// model prefix locally, ship the intermediate activation, finish remotely)
// and MOSAIC-style on-device slicing (assign layer segments to different
// local engines, paying a context switch at each boundary). AutoScale itself
// offloads at model granularity (Section IV footnote 4); these modes exist
// so the comparison is faithful.

// switchOverheadS is the fixed cost of migrating execution between two
// engines of the same SoC (runtime handoff, cache/DMA setup).
const switchOverheadS = 1.5e-3

// Partitioned computes the noise-free outcome of running layers [0,cut) of
// m on the local target and layers [cut,len) at the remote location's
// best-suited engine (at its top DVFS step, chosen automatically),
// transferring the boundary activation out and the result back. cut ==
// len(m.Layers) degenerates to fully local execution; cut == 0 to a full
// offload. The NeuroSurgeon comparator and the partition actions use it.
func (w *World) Partitioned(m *dnn.Model, cut int, local Target, remoteLoc Location, c Conditions) (Measurement, error) {
	if remoteLoc == Local {
		return Measurement{}, fmt.Errorf("sim: partition remote location must not be local")
	}
	if cut < 0 || cut > len(m.Layers) {
		return Measurement{}, fmt.Errorf("sim: partition cut %d out of range", cut)
	}
	if local.Location != Local {
		return Measurement{}, fmt.Errorf("sim: partition local target must be local")
	}

	pen := interfere.PenaltiesFor(c.Load)
	localProc := w.Device.Processor(local.Kind)
	if localProc == nil || !localProc.SupportsPrecision(local.Prec) {
		return Measurement{}, fmt.Errorf("sim: invalid local target %v", local)
	}

	// Local prefix.
	var localLat float64
	prefixHasRC := false
	for _, l := range m.Layers[:cut] {
		if l.Type == dnn.RC {
			prefixHasRC = true
		}
		localLat += perf.LayerLatency(perf.Exec{Proc: localProc, Step: local.Step, Prec: local.Prec}, l, pen)
	}
	if prefixHasRC && !localProc.SupportsRC {
		return Measurement{}, fmt.Errorf("sim: local prefix has RC layers unsupported by %s", localProc.Name)
	}

	// Fully local degenerate case.
	if cut == len(m.Layers) {
		bd, err := power.OnDevice(localProc, local.Step, localLat, w.Device.PlatformIdleW)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{
			Target: local, LatencyS: localLat, Breakdown: bd,
			EnergyJ: bd.Total(), Accuracy: m.Accuracy(local.Prec),
		}, nil
	}

	// Boundary payload: the input itself when nothing ran locally, else
	// the activation produced by the last local layer.
	payload := m.InputBytes
	if cut > 0 {
		payload = m.Layers[cut-1].ActivationBytes
		if payload <= 0 {
			payload = m.InputBytes * 0.1
		}
	}

	remoteSys := w.systemAt(remoteLoc)
	remoteProc := bestRemoteEngine(remoteSys, m.Layers[cut:])
	remotePrec := remotePrecision(remoteLoc, remoteProc)
	var remoteLat float64
	for _, l := range m.Layers[cut:] {
		remoteLat += perf.LayerLatency(perf.Exec{Proc: remoteProc, Step: remoteProc.Steps - 1, Prec: remotePrec}, l, perf.NoInterference())
	}

	link := w.linkTo(remoteLoc)
	rssi := c.rssiFor(remoteLoc)
	tTX := link.TransferSeconds(payload, rssi)
	tRX := link.TransferSeconds(m.OutputBytes, rssi)
	total := localLat + tTX + remoteLat + w.serviceOverhead(remoteLoc) + tRX

	localBD, err := power.OnDevice(localProc, local.Step, localLat, 0)
	if err != nil {
		return Measurement{}, err
	}
	offBD, err := power.Offload(link, rssi, tTX, tRX, total-localLat, w.Device.PlatformIdleW)
	if err != nil {
		return Measurement{}, err
	}
	bd := power.Breakdown{
		Compute: localBD.Compute,
		Radio:   offBD.Radio,
		Idle:    offBD.Idle + w.Device.PlatformIdleW*localLat,
	}
	// Accuracy follows the lower-precision stage.
	acc := m.Accuracy(local.Prec)
	if cut == 0 || m.Accuracy(remotePrec) < acc {
		acc = m.Accuracy(remotePrec)
	}
	return Measurement{
		Target:     Target{Location: remoteLoc, Kind: remoteProc.Kind, Prec: remotePrec},
		LatencyS:   total,
		EnergyJ:    bd.Total(),
		Breakdown:  bd,
		Accuracy:   acc,
		TTXSeconds: tTX,
		TRXSeconds: tRX,
	}, nil
}

// bestRemoteEngine picks the remote engine for a layer suffix: the GPU when
// it can run every layer (RC support), otherwise the CPU.
func bestRemoteEngine(sys *soc.Device, layers []dnn.Layer) *soc.Processor {
	hasRC := false
	for _, l := range layers {
		if l.Type == dnn.RC {
			hasRC = true
			break
		}
	}
	if gpu := sys.Processor(soc.GPU); gpu != nil && (!hasRC || gpu.SupportsRC) {
		return gpu
	}
	return sys.Processor(soc.CPU)
}

// Slice is one segment of a MOSAIC-style on-device slicing plan: layers
// [From,To) run on the local engine described by Target (which must be a
// Local target).
type Slice struct {
	From, To int
	Target   Target
}

// ExpectedSliced computes the noise-free outcome of running m across the
// given on-device slices in order, paying a context switch (fixed handoff
// plus moving the boundary activation through DRAM) at each boundary.
func (w *World) ExpectedSliced(m *dnn.Model, slices []Slice, c Conditions) (Measurement, error) {
	if len(slices) == 0 {
		return Measurement{}, fmt.Errorf("sim: empty slicing plan")
	}
	pen := interfere.PenaltiesFor(c.Load)
	var (
		total   float64
		compute float64
		minAcc  = 101.0
	)
	next := 0
	for i, sl := range slices {
		if sl.From != next || sl.To <= sl.From || sl.To > len(m.Layers) {
			return Measurement{}, fmt.Errorf("sim: slice %d [%d,%d) not contiguous", i, sl.From, sl.To)
		}
		next = sl.To
		if sl.Target.Location != Local {
			return Measurement{}, fmt.Errorf("sim: slice %d is not local", i)
		}
		proc := w.Device.Processor(sl.Target.Kind)
		if proc == nil || !proc.SupportsPrecision(sl.Target.Prec) {
			return Measurement{}, fmt.Errorf("sim: slice %d has invalid target %v", i, sl.Target)
		}
		var segLat float64
		for _, l := range m.Layers[sl.From:sl.To] {
			if l.Type == dnn.RC && !proc.SupportsRC {
				return Measurement{}, fmt.Errorf("sim: slice %d routes RC layers to %s", i, proc.Name)
			}
			segLat += perf.LayerLatency(perf.Exec{Proc: proc, Step: sl.Target.Step, Prec: sl.Target.Prec}, l, pen)
		}
		if i > 0 {
			boundary := m.Layers[sl.From-1].ActivationBytes
			segLat += switchOverheadS + boundary/(proc.MemBWGBs*1e9)*pen.MemSlowdown
		}
		total += segLat
		bd, err := power.OnDevice(proc, sl.Target.Step, segLat, 0)
		if err != nil {
			return Measurement{}, err
		}
		compute += bd.Compute
		if a := m.Accuracy(sl.Target.Prec); a < minAcc {
			minAcc = a
		}
	}
	if next != len(m.Layers) {
		return Measurement{}, fmt.Errorf("sim: slicing plan covers %d of %d layers", next, len(m.Layers))
	}
	bd := power.Breakdown{Compute: compute, Idle: w.Device.PlatformIdleW * total}
	return Measurement{
		Target:    slices[len(slices)-1].Target,
		LatencyS:  total,
		EnergyJ:   bd.Total(),
		Breakdown: bd,
		Accuracy:  minAcc,
	}, nil
}
