package serve

import (
	"errors"

	"autoscale/internal/policy"
)

// Policy-plane glue: warm-starting workers from the checkpoint store,
// flushing final tables at shutdown, and exposing the workers to the routing
// tier's federation syncer.

// warmStart restores a worker's engine from the newest compatible
// checkpoint: the device's own latest generation when its config hash still
// matches the engine, otherwise the fleet's merged policy for that hash. It
// is best-effort by design — a missing, incompatible or invalid checkpoint
// leaves the engine on its donor-transferred (or cold) table; the store has
// already quarantined anything corrupt.
func warmStart(w *worker, sink policy.Sink) (uint64, bool) {
	hash := w.engine.ConfigHash()
	for _, device := range []string{w.device, policy.FleetDevice(hash)} {
		ck, err := sink.Latest(device)
		if err != nil || ck.ConfigHash != hash {
			continue
		}
		if err := w.engine.RestoreQTable(ck.Snapshot); err != nil {
			continue
		}
		return ck.Generation, true
	}
	return 0, false
}

// checkpointWorker persists one worker's current Q-table with retry/backoff.
func checkpointWorker(w *worker, sink policy.Sink, cfg policy.SyncConfig) error {
	data, err := w.engine.SnapshotQTable()
	if err != nil {
		return err
	}
	ck, err := policy.NewCheckpoint(w.device, w.engine.ConfigHash(), data)
	if err != nil {
		return err
	}
	_, err = policy.SaveWithRetry(sink, ck, cfg)
	if errors.Is(err, policy.ErrStaleGeneration) {
		// A fresher generation is already on disk; nothing to add.
		return nil
	}
	return err
}

// WarmStarts reports which devices were warm-started from the checkpoint
// store — at construction or when AddBackend re-homed them here — mapped to
// the generation they resumed from.
func (g *Gateway) WarmStarts() map[string]uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]uint64, len(g.warm))
	for d, gen := range g.warm {
		out[d] = gen
	}
	return out
}

// PolicyNodes exposes the gateway's workers to a federation syncer. The
// routing tier aggregates every shard's nodes into one cross-shard learning
// plane, so experience merges fleet-wide, not just within a shard.
func (g *Gateway) PolicyNodes() []policy.Node {
	ws := g.snapshotWorkers()
	nodes := make([]policy.Node, 0, len(ws))
	for _, w := range ws {
		nodes = append(nodes, policy.Node{Device: w.device, Engine: w.engine})
	}
	return nodes
}
