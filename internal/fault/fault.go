// Package fault is the deterministic fault-injection engine for the
// edge–cloud world: a declarative Schedule of scripted fault specs — offload
// outage windows (solid or Markov up/down), RSSI degradation ramps, remote
// queueing spikes, thermal throttle events, worker crashes and checkpoint
// corruption drills — compiled by an exec.Context-seeded Injector into
// read-only timelines that the simulator and the serving gateway query at
// each request's virtual time.
//
// The paper's whole premise is stochastic runtime variance (co-running
// interference, wireless signal change); the original robustness extension
// modelled failures as a single per-request Bernoulli coin flip
// (sim.World.OutageProb). Real outages are time-correlated: an access point
// reboots and stays down for seconds, a signal fades over a walk down a
// corridor, a server queue spikes and drains. This package scripts those
// dynamics so experiments and the serving gateway can be driven — and
// replayed byte-identically — from one (schedule, root seed) pair.
//
// Determinism: every stochastic choice (the Markov window durations) is
// drawn at compile time from named streams of the constructor's
// exec.Context, so an Injector's timelines are a pure function of
// (schedule, context identity). Queries are pure reads on immutable state
// and safe for any number of concurrent goroutines.
package fault

import (
	"fmt"

	"autoscale/internal/exec"
)

// Kind names a fault mechanism.
type Kind string

// Supported fault kinds.
const (
	// KindOutage takes an offload site (cloud or connected) down for a
	// window: solid [start, end), or Markov up/down alternation inside it
	// when MeanUpS/MeanDownS are set.
	KindOutage Kind = "outage"
	// KindRSSIRamp degrades a radio link's signal linearly from 0 dBm delta
	// at StartS to DeltaDBm at EndS (recovering instantly after EndS).
	KindRSSIRamp Kind = "rssi_ramp"
	// KindQueueSpike adds remote-side service time at a site for a window
	// (an overloaded server draining a deep queue).
	KindQueueSpike Kind = "queue_spike"
	// KindThermal multiplies local compute latency by Factor for a window
	// (a thermally throttled device).
	KindThermal Kind = "thermal"
	// KindWorkerCrash crashes a named serving worker at StartS: the worker
	// loses its in-memory Q-table and restarts from its latest checkpoint.
	KindWorkerCrash Kind = "worker_crash"
	// KindCheckpointCorrupt corrupts the named device's newest on-disk
	// checkpoint at StartS — the drill that proves the policy store's
	// quarantine-and-fall-back machinery works when it matters.
	KindCheckpointCorrupt Kind = "checkpoint_corrupt"
	// KindShardCrash kills a named gateway shard at StartS on that shard's
	// virtual clock: the routing tier must mask the shard, fail its queued
	// requests over to survivors, and re-home its devices from their latest
	// checkpoints.
	KindShardCrash Kind = "shard_crash"
	// KindLoadSurge multiplies the offered arrival rate by Factor for a
	// window. Unlike the other kinds it does not perturb execution: load
	// generators scale their inter-arrival draws by SurgeFactor, and the
	// capacity planner reads PeakSurge to scale worker pools ahead of the
	// wave.
	KindLoadSurge Kind = "load_surge"
	// KindGrayDegrade is a gray failure: the named serving worker stays
	// alive and keeps answering, but every inference it executes takes
	// Factor times longer while the window holds. Nothing crashes and no
	// offload errors — only latency-sensitive health scoring can catch it.
	KindGrayDegrade Kind = "gray_degrade"
	// KindCheckpointIO degrades the checkpoint store's I/O path for the
	// named device (or the whole store when Device is empty) while the
	// window holds. IOMode selects the failure: "write_fail" (saves error),
	// "slow_fsync" (saves succeed but are counted as slow), "disk_full"
	// (saves and reads both fail — the disk is unusable).
	KindCheckpointIO Kind = "checkpoint_io"
	// KindSyncPartition partitions the named device from the policy-sync
	// plane while the window holds: the federation Syncer cannot reach it
	// (checkpoint/merge passes fail for it) even though it keeps serving
	// traffic.
	KindSyncPartition Kind = "sync_partition"
)

// Checkpoint-store I/O failure modes for KindCheckpointIO specs.
const (
	IOWriteFail = "write_fail"
	IOSlowFsync = "slow_fsync"
	IODiskFull  = "disk_full"
)

// Offload sites and radio links a spec can target. Sites mirror
// sim.Location's remote values; links mirror the world's two radios.
const (
	SiteCloud     = "cloud"
	SiteConnected = "connected"
	LinkWLAN      = "wlan"
	LinkP2P       = "p2p"
)

// Spec is one scripted fault. Which fields apply depends on Kind; Validate
// rejects contradictory combinations. All times are virtual-clock seconds
// (the simulated time accumulated by executed inferences), not wall time.
type Spec struct {
	Kind Kind `json:"kind"`
	// Site targets outages and queue spikes ("cloud" or "connected").
	Site string `json:"site,omitempty"`
	// Link targets RSSI ramps ("wlan" or "p2p").
	Link string `json:"link,omitempty"`
	// Device targets worker crashes and checkpoint corruption drills.
	Device string `json:"device,omitempty"`
	// Shard targets shard crashes (the routing tier's gateway shards).
	Shard string `json:"shard,omitempty"`
	// StartS/EndS bound window faults; event faults (worker_crash,
	// checkpoint_corrupt) fire once at StartS and ignore EndS.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s,omitempty"`
	// MeanUpS/MeanDownS, when both positive, make an outage window a
	// Markov process: alternating exponentially distributed down and up
	// phases inside [StartS, EndS), starting down. Zero means solid-down.
	MeanUpS   float64 `json:"mean_up_s,omitempty"`
	MeanDownS float64 `json:"mean_down_s,omitempty"`
	// DeltaDBm is the signal degradation an RSSI ramp reaches at EndS
	// (negative for degradation).
	DeltaDBm float64 `json:"delta_dbm,omitempty"`
	// ExtraServiceS is the added remote service time of a queue spike.
	ExtraServiceS float64 `json:"extra_service_s,omitempty"`
	// Factor is the thermal throttle's local latency multiplier, the load
	// surge's arrival-rate multiplier, or the gray degradation's latency
	// multiplier (> 1 for all three).
	Factor float64 `json:"factor,omitempty"`
	// IOMode selects a checkpoint_io spec's failure mode: "write_fail",
	// "slow_fsync" or "disk_full".
	IOMode string `json:"io_mode,omitempty"`
}

// Schedule is a declarative list of scripted faults.
type Schedule struct {
	// Name labels the schedule in logs and summaries.
	Name string `json:"name,omitempty"`
	// Faults are the scripted specs; order is irrelevant except that the
	// Markov streams of outage specs derive from their index.
	Faults []Spec `json:"faults"`
}

// event reports whether a kind fires once instead of holding for a window.
func (k Kind) event() bool {
	return k == KindWorkerCrash || k == KindCheckpointCorrupt || k == KindShardCrash
}

// validSite reports whether s names an offload site.
func validSite(s string) bool { return s == SiteCloud || s == SiteConnected }

// validLink reports whether s names a radio link.
func validLink(s string) bool { return s == LinkWLAN || s == LinkP2P }

// Validate checks every spec for internal consistency.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("fault: nil schedule")
	}
	for i, sp := range s.Faults {
		if err := sp.validate(); err != nil {
			return fmt.Errorf("fault: spec %d: %w", i, err)
		}
	}
	return nil
}

func (sp Spec) validate() error {
	if sp.StartS < 0 {
		return fmt.Errorf("%s starts at negative time %g", sp.Kind, sp.StartS)
	}
	if !sp.Kind.event() && sp.EndS <= sp.StartS {
		return fmt.Errorf("%s window [%g, %g) is empty", sp.Kind, sp.StartS, sp.EndS)
	}
	switch sp.Kind {
	case KindOutage:
		if !validSite(sp.Site) {
			return fmt.Errorf("outage needs site %q or %q, got %q", SiteCloud, SiteConnected, sp.Site)
		}
		if (sp.MeanUpS > 0) != (sp.MeanDownS > 0) {
			return fmt.Errorf("Markov outage needs both mean_up_s and mean_down_s positive")
		}
		if sp.MeanUpS < 0 || sp.MeanDownS < 0 {
			return fmt.Errorf("negative Markov means")
		}
	case KindRSSIRamp:
		if !validLink(sp.Link) {
			return fmt.Errorf("rssi_ramp needs link %q or %q, got %q", LinkWLAN, LinkP2P, sp.Link)
		}
		if sp.DeltaDBm == 0 {
			return fmt.Errorf("rssi_ramp needs a non-zero delta_dbm")
		}
	case KindQueueSpike:
		if !validSite(sp.Site) {
			return fmt.Errorf("queue_spike needs site %q or %q, got %q", SiteCloud, SiteConnected, sp.Site)
		}
		if sp.ExtraServiceS <= 0 {
			return fmt.Errorf("queue_spike needs a positive extra_service_s")
		}
	case KindThermal:
		if sp.Factor <= 1 {
			return fmt.Errorf("thermal needs factor > 1, got %g", sp.Factor)
		}
	case KindLoadSurge:
		if sp.Factor <= 1 {
			return fmt.Errorf("load_surge needs factor > 1, got %g", sp.Factor)
		}
	case KindGrayDegrade:
		if sp.Device == "" {
			return fmt.Errorf("gray_degrade needs a device name")
		}
		if sp.Factor <= 1 {
			return fmt.Errorf("gray_degrade needs factor > 1, got %g", sp.Factor)
		}
	case KindCheckpointIO:
		switch sp.IOMode {
		case IOWriteFail, IOSlowFsync, IODiskFull:
		default:
			return fmt.Errorf("checkpoint_io needs io_mode %q, %q or %q, got %q",
				IOWriteFail, IOSlowFsync, IODiskFull, sp.IOMode)
		}
	case KindSyncPartition:
		if sp.Device == "" {
			return fmt.Errorf("sync_partition needs a device name")
		}
	case KindWorkerCrash, KindCheckpointCorrupt:
		if sp.Device == "" {
			return fmt.Errorf("%s needs a device name", sp.Kind)
		}
	case KindShardCrash:
		if sp.Shard == "" {
			return fmt.Errorf("shard_crash needs a shard name")
		}
	default:
		return fmt.Errorf("unknown fault kind %q", sp.Kind)
	}
	return nil
}

// maxMarkovWindows bounds the compiled window count of one Markov outage
// spec, so a schedule with a tiny mean cannot allocate unboundedly.
const maxMarkovWindows = 1 << 16

// compileOutage expands one outage spec into concrete down windows, drawing
// Markov phase durations from the spec's named stream.
func compileOutage(sp Spec, idx int, ctx *exec.Context) []window {
	if sp.MeanDownS <= 0 { // solid window
		return []window{{sp.StartS, sp.EndS}}
	}
	st := ctx.Stream("fault.markov", uint64(idx))
	var out []window
	t, down := sp.StartS, true
	for t < sp.EndS && len(out) < maxMarkovWindows {
		mean := sp.MeanUpS
		if down {
			mean = sp.MeanDownS
		}
		end := t + st.ExpFloat64()*mean
		if end > sp.EndS {
			end = sp.EndS
		}
		if down && end > t {
			out = append(out, window{t, end})
		}
		t, down = end, !down
	}
	return out
}
