package autoscale

import (
	"autoscale/internal/exec"
	"autoscale/internal/fault"
)

// Fault injection: deterministic, scripted failures for resilience testing.
// A FaultSchedule declares what goes wrong and when — outage windows (solid
// or Markov up/down), RSSI degradation ramps, server queueing spikes,
// thermal throttles, worker crashes, checkpoint corruption — and compiles
// into an immutable FaultInjector whose every stochastic choice derives from
// an execution context, so the same schedule and seed replay the exact same
// storm (see internal/fault for full documentation).
type (
	// FaultSchedule is a declarative list of fault specs, loadable from JSON.
	FaultSchedule = fault.Schedule
	// FaultInjector is a compiled, immutable schedule answering point-in-time
	// queries ("is the cloud down at t=3.2s?"). Safe for concurrent use; a
	// nil injector is inert.
	FaultInjector = fault.Injector
)

// Checkpoint-store I/O fault modes (checkpoint_io specs).
const (
	FaultIOWriteFail = fault.IOWriteFail
	FaultIOSlowFsync = fault.IOSlowFsync
	FaultIODiskFull  = fault.IODiskFull
)

// LoadFaultSchedule reads and validates a JSON fault schedule file.
func LoadFaultSchedule(path string) (*FaultSchedule, error) { return fault.Load(path) }

// CompileFaultSchedule is the common one-liner: derive the canonical "faults"
// child context from seed and compile the schedule against it, matching what
// the experiment harness and CLIs do.
func CompileFaultSchedule(s *FaultSchedule, seed int64) *FaultInjector {
	return fault.New(s, exec.NewRoot(seed).Child("faults"))
}

// FaultRandomOpts scopes RandomFaultSchedule's generation: which device
// lanes and shards exist, and how long the storm runs.
type FaultRandomOpts = fault.RandomOpts

// RandomFaultSchedule generates a seeded chaos schedule mixing every fault
// kind over the given fleet — the storm behind `autoscale-serve -chaos` and
// `make chaos`. Intensity in (0, 1] scales fault count and window length;
// the same seed and opts always yield the same schedule.
func RandomFaultSchedule(seed int64, intensity float64, opt FaultRandomOpts) *FaultSchedule {
	return fault.Randomize(seed, intensity, opt)
}
