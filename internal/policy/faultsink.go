package policy

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// IOVerdict classifies the checkpoint store's injected I/O state at one
// instant. It arrives through FaultSink.Verdict, a callback the wiring layer
// builds from its fault injector, rather than from the injector itself,
// because the caller owns both halves of the question: the virtual clock
// the verdict is evaluated at (one sampled outside the serving tier's
// locks) and the mapping from the fault plane's I/O modes to these
// verdicts.
type IOVerdict int

const (
	// IOHealthy: the store behaves normally.
	IOHealthy IOVerdict = iota
	// IOSlow: saves succeed but each fsync is pathologically slow; the sink
	// counts them so health scoring can see the latency, without blocking
	// the virtual-clock run on wall time.
	IOSlow
	// IOFailWrite: every save fails (a flaky disk rejecting writes); reads
	// still serve the prior generations.
	IOFailWrite
	// IOFailAll: the disk is full or gone — saves and reads both fail, and
	// restores must fall back to nothing (warm-start is best-effort).
	IOFailAll
)

// ErrInjectedIO marks a checkpoint-store failure injected by the fault
// plane, so tests and auditors can distinguish scripted damage from real
// bugs.
var ErrInjectedIO = errors.New("policy: injected checkpoint I/O fault")

// FaultSink wraps a Sink with scripted I/O damage evaluated on the virtual
// clock. It is the checkpoint-store analog of the gateway's fault events:
// Verdict(device, Now()) decides per call whether a save fails, is counted
// slow, or a read is refused — exercising the store's quarantine/fallback
// machinery under load without touching the store itself. The zero Verdict
// / Now are treated as always-healthy, so a FaultSink with only Inner set
// is a transparent proxy.
type FaultSink struct {
	// Inner is the real store.
	Inner Sink
	// Now supplies the virtual time verdicts are evaluated at. It MUST NOT
	// call back into the serving tier that uses this sink (for example
	// Router.VirtualNow): saves and restores run under those components'
	// locks — during re-homing warm starts and drain flushes — and a
	// re-entrant clock deadlocks. Feed it a clock sampled outside the lock
	// (an atomic the driving loop updates).
	Now func() float64
	// Verdict maps (device, virtual time) to the injected I/O state.
	Verdict func(device string, t float64) IOVerdict
	// Events, when set, receives one call per non-healthy verdict that
	// actually altered an operation (a failed save, a slow save, a refused
	// read). The wiring layer typically points it at a flight recorder's
	// Note so checkpoint I/O damage lands in the incident event ring; it is
	// a plain function so policy does not import the tracing plane.
	Events func(atS float64, kind, subject, detail string)

	slowSaves   atomic.Uint64
	failedOps   atomic.Uint64
	failedReads atomic.Uint64
}

var _ Sink = (*FaultSink)(nil)

func (f *FaultSink) verdict(device string) (IOVerdict, float64) {
	if f.Verdict == nil || f.Now == nil {
		return IOHealthy, 0
	}
	t := f.Now()
	return f.Verdict(device, t), t
}

func (f *FaultSink) note(atS float64, subject, detail string) {
	if f.Events != nil {
		f.Events(atS, "checkpoint-io", subject, detail)
	}
}

// SaveNext persists through the inner sink unless the injected verdict says
// the write must fail; IOSlow saves succeed and are counted.
func (f *FaultSink) SaveNext(c *Checkpoint) (uint64, error) {
	switch v, t := f.verdict(c.Device); v {
	case IOFailWrite:
		f.failedOps.Add(1)
		f.note(t, c.Device, "save failed: write failure")
		return 0, fmt.Errorf("save %s: write failure: %w", c.Device, ErrInjectedIO)
	case IOFailAll:
		f.failedOps.Add(1)
		f.note(t, c.Device, "save failed: disk full")
		return 0, fmt.Errorf("save %s: disk full: %w", c.Device, ErrInjectedIO)
	case IOSlow:
		f.slowSaves.Add(1)
		f.note(t, c.Device, "slow save")
	}
	return f.Inner.SaveNext(c)
}

// Latest reads through the inner sink unless the disk is injected as fully
// unusable (IOFailAll).
func (f *FaultSink) Latest(device string) (*Checkpoint, error) {
	if v, t := f.verdict(device); v == IOFailAll {
		f.failedReads.Add(1)
		f.note(t, device, "read refused: disk full")
		return nil, fmt.Errorf("latest %s: disk full: %w", device, ErrInjectedIO)
	}
	return f.Inner.Latest(device)
}

// CorruptLatest passes corruption drills through to the inner store when it
// supports them, so a FaultSink-wrapped store still honors
// checkpoint_corrupt events.
func (f *FaultSink) CorruptLatest(device string) (uint64, error) {
	if c, ok := f.Inner.(Corrupter); ok {
		return c.CorruptLatest(device)
	}
	return 0, fmt.Errorf("policy: inner sink cannot corrupt checkpoints")
}

// Stats reports how much injected damage the sink has dealt: slow saves,
// failed writes, refused reads.
func (f *FaultSink) Stats() (slowSaves, failedWrites, failedReads uint64) {
	return f.slowSaves.Load(), f.failedOps.Load(), f.failedReads.Load()
}
