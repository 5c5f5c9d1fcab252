// Package policy is the fleet learning plane: durable, versioned storage for
// the Q-tables the engines learn online, and federation of those tables
// across a heterogeneous fleet.
//
// The paper shows AutoScale's learned policy transfers across devices and
// networks (Section VI-C); this package operationalizes that result for a
// production fleet. It has two layers:
//
//   - Checkpoint store (store.go): crash-safe snapshots — temp-file +
//     atomic-rename writes, CRC32-checksummed schema-versioned envelopes,
//     per-device monotonic generation numbers, retention of the last N
//     generations, and quarantine of corrupt files on load so a torn or
//     bit-flipped latest checkpoint falls back to the previous one instead
//     of feeding garbage to an engine.
//
//   - Federation (merge.go, sync.go): visit-count-weighted merging of
//     compatible Q-tables into a shared fleet policy, and a Syncer that
//     periodically (on the fleet's virtual clock) checkpoints every node,
//     refreshes the merged policy, and warm-starts new or restarted nodes
//     from it — with
//     retry/backoff on store errors and staleness guards so an old
//     generation never overwrites a newer one.
//
// Compatibility is decided by core's engine ConfigHash: two tables merge (or
// warm-start one another) only when their action spaces, state
// discretizations, algorithm and reward parameterization agree.
package policy

import (
	"errors"
	"fmt"
	"sort"

	"autoscale/internal/rl"
)

// Sentinel errors of the policy plane.
var (
	// ErrNotEnvelope marks data that is not a policy checkpoint envelope
	// (e.g. a legacy raw rl snapshot, or arbitrary junk).
	ErrNotEnvelope = errors.New("policy: not a checkpoint envelope")
	// ErrCorrupt marks an envelope whose checksum or structure fails
	// verification — truncated, bit-flipped, or torn files.
	ErrCorrupt = errors.New("policy: corrupt checkpoint")
	// ErrVersion marks an envelope written by an unknown schema version.
	ErrVersion = errors.New("policy: unsupported checkpoint version")
	// ErrNoCheckpoint is returned by Latest when a device has no valid
	// checkpoint on disk.
	ErrNoCheckpoint = errors.New("policy: no checkpoint")
	// ErrStaleGeneration marks a write whose generation is not newer than
	// what the store already holds for the device.
	ErrStaleGeneration = errors.New("policy: stale generation")
)

// Meta is the checkpoint metadata carried in the envelope, inspectable
// without decoding the Q-table payload.
type Meta struct {
	// Device names the fleet node the table was learned on. Merged fleet
	// policies use the reserved FleetDevice name of their config hash.
	Device string `json:"device"`
	// ConfigHash is the engine compatibility fingerprint
	// (core.Engine.ConfigHash); only matching tables merge or warm-start.
	ConfigHash string `json:"config_hash"`
	// Generation is the per-device monotonic checkpoint counter, assigned
	// by the store at save time.
	Generation uint64 `json:"generation"`
	// Actions is the action-space cardinality of the table.
	Actions int `json:"actions"`
	// States is the number of materialized Q rows.
	States int `json:"states"`
	// Visits maps each state key to its visit count — the experience
	// weights federation averages by.
	Visits map[string]int `json:"visits,omitempty"`
	// Sources lists the contributing device names of a merged policy
	// (empty for a single-device checkpoint).
	Sources []string `json:"sources,omitempty"`
}

// TotalVisits sums the per-state visit counts.
func (m Meta) TotalVisits() int {
	total := 0
	for _, n := range m.Visits {
		total += n
	}
	return total
}

// Checkpoint is one durable policy snapshot: envelope metadata plus the raw
// rl agent snapshot payload.
type Checkpoint struct {
	Meta
	// Snapshot is the encoded rl.Table (Q-table, visit counts, config).
	Snapshot []byte
}

// NewCheckpoint validates an rl snapshot payload and wraps it in checkpoint
// metadata (generation 0 — the store assigns the real generation at save).
func NewCheckpoint(device, configHash string, snapshot []byte) (*Checkpoint, error) {
	if device == "" {
		return nil, errors.New("policy: checkpoint needs a device name")
	}
	tbl, err := rl.DecodeTable(snapshot)
	if err != nil {
		return nil, fmt.Errorf("policy: invalid snapshot for %s: %w", device, err)
	}
	visits := make(map[string]int, len(tbl.Visits))
	for s, n := range tbl.Visits {
		visits[string(s)] = n
	}
	return &Checkpoint{
		Meta: Meta{
			Device:     device,
			ConfigHash: configHash,
			Actions:    tbl.Actions,
			States:     len(tbl.Q),
			Visits:     visits,
		},
		Snapshot: snapshot,
	}, nil
}

// Table decodes and validates the checkpoint's payload as plain data — the
// policy plane reads, merges and diffs tables without building an agent;
// only an engine's RestoreQTable puts one on a state grid.
func (c *Checkpoint) Table() (rl.Table, error) { return rl.DecodeTable(c.Snapshot) }

// FleetDevice is the reserved store device name under which the merged
// policy for one compatibility group (config hash) is filed. It starts with
// an underscore so it can never collide with a real gateway device name
// produced by sanitization of user input — real names keep their own
// characters, and Latest/History match on the full stored name anyway.
func FleetDevice(configHash string) string { return "_fleet-" + configHash }

// sortedDevices returns the checkpoint device names in sorted order.
func sortedDevices(cks []*Checkpoint) []string {
	out := make([]string, 0, len(cks))
	for _, c := range cks {
		out = append(out, c.Device)
	}
	sort.Strings(out)
	return out
}
