package autoscale

import "autoscale/internal/policy"

// Policy plane: durable, versioned Q-table checkpoints and federated fleet
// policy sync (see internal/policy for full documentation). The store keeps
// crash-safe, CRC-checked, generation-numbered snapshots per device; the
// federation layer merges compatible tables visit-count-weighted into a
// shared fleet policy that new or restarted devices warm-start from —
// the paper's Section VI-C learning transfer, operationalized.
type (
	// PolicyStore is the crash-safe checkpoint store.
	PolicyStore = policy.Store
	// PolicyCheckpoint is one durable policy snapshot (metadata + Q-table).
	PolicyCheckpoint = policy.Checkpoint
	// PolicyMeta is the checkpoint metadata carried in the envelope.
	PolicyMeta = policy.Meta
	// PolicySink is the store surface the gateway and syncer depend on.
	PolicySink = policy.Sink
	// PolicySyncConfig tunes the sync interval in virtual seconds and save
	// retry/backoff (GatewayConfig.PolicySync).
	PolicySyncConfig = policy.SyncConfig
	// PolicyFaultSink wraps a sink with scripted I/O faults (write failure,
	// slow fsync, disk-full) for chaos drills; wire its Verdict from a fault
	// injector's CheckpointIO query.
	PolicyFaultSink = policy.FaultSink
	// PolicyIOVerdict is a fault sink's per-operation ruling.
	PolicyIOVerdict = policy.IOVerdict
)

// Fault-sink I/O verdicts.
const (
	PolicyIOHealthy   = policy.IOHealthy
	PolicyIOSlow      = policy.IOSlow
	PolicyIOFailWrite = policy.IOFailWrite
	PolicyIOFailAll   = policy.IOFailAll
)

// Policy plane sentinel errors.
var (
	ErrNoPolicyCheckpoint = policy.ErrNoCheckpoint
	// ErrPolicyInjectedIO marks checkpoint-store damage dealt by a fault
	// sink, distinguishing scripted I/O failures from real bugs.
	ErrPolicyInjectedIO = policy.ErrInjectedIO
)

// OpenPolicyStore creates (or reopens) a checkpoint store rooted at dir,
// keeping the last retain generations per device (<=0 uses the default).
func OpenPolicyStore(dir string, retain int) (*PolicyStore, error) {
	return policy.Open(dir, retain)
}

// NewPolicyCheckpoint snapshots an engine's current Q-table as a checkpoint
// for the named device, stamped with the engine's config hash.
func NewPolicyCheckpoint(e *Engine, device string) (*PolicyCheckpoint, error) {
	snap, err := e.SnapshotQTable()
	if err != nil {
		return nil, err
	}
	return policy.NewCheckpoint(device, e.ConfigHash(), snap)
}

// MergePolicies federates compatible checkpoints into one shared fleet
// policy: rows known to one device pass through, rows known to several are
// averaged per action weighted by each device's visit count for the state.
func MergePolicies(cks ...*PolicyCheckpoint) (*PolicyCheckpoint, error) {
	return policy.Merge(cks)
}

// DecodePolicyCheckpoint verifies and parses checkpoint envelope bytes; an
// error means non-envelope, damaged or unsupported data.
func DecodePolicyCheckpoint(data []byte) (*PolicyCheckpoint, error) {
	return policy.Decode(data)
}

// EncodePolicyCheckpoint serializes a checkpoint into envelope bytes.
func EncodePolicyCheckpoint(ck *PolicyCheckpoint) ([]byte, error) {
	return policy.Encode(ck)
}

// ReadPolicyCheckpoint / WritePolicyCheckpoint move standalone envelope
// files (outside store semantics — CLI and tooling paths).
func ReadPolicyCheckpoint(path string) (*PolicyCheckpoint, error) {
	return policy.ReadFile(path)
}

// WritePolicyCheckpoint writes a checkpoint to a standalone envelope file.
func WritePolicyCheckpoint(path string, ck *PolicyCheckpoint) error {
	return policy.WriteFile(path, ck)
}
