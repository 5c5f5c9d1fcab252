package policy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"autoscale/internal/core"
)

// Node is one fleet member the Syncer manages: a named device and its live
// engine.
type Node struct {
	Device string
	Engine *core.Engine
}

// SyncConfig tunes a Syncer.
type SyncConfig struct {
	// Interval is the virtual time between MaybeTick passes (default 30s).
	Interval time.Duration
	// MaxAttempts bounds save attempts per checkpoint, including the first
	// (default 3).
	MaxAttempts int
	// Backoff is the first retry delay; it doubles per attempt
	// (default 100ms).
	Backoff time.Duration
	// Sleep overrides the backoff wait (tests; default time.Sleep).
	Sleep func(time.Duration)
	// Unreachable, when set, reports whether a device is partitioned from
	// the sync plane right now: the syncer skips it (recording an
	// ErrPartitioned failure) while the device keeps serving traffic.
	Unreachable func(device string) bool
}

// ErrPartitioned marks a device the syncer could not reach this pass.
var ErrPartitioned = errors.New("policy: device partitioned from sync plane")

func (c SyncConfig) interval() time.Duration {
	if c.Interval <= 0 {
		return 30 * time.Second
	}
	return c.Interval
}

func (c SyncConfig) attempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

func (c SyncConfig) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.Backoff
}

func (c SyncConfig) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// SaveWithRetry saves a checkpoint through a sink, retrying transient store
// errors with exponential backoff. Staleness rejections are not retried:
// a newer generation on disk means someone else already persisted fresher
// learning, which is success from the fleet's point of view.
func SaveWithRetry(sink Sink, c *Checkpoint, cfg SyncConfig) (uint64, error) {
	var lastErr error
	delay := cfg.backoff()
	for attempt := 0; attempt < cfg.attempts(); attempt++ {
		if attempt > 0 {
			cfg.sleep(delay)
			delay *= 2
		}
		gen, err := sink.SaveNext(c)
		if err == nil {
			return gen, nil
		}
		if errors.Is(err, ErrStaleGeneration) {
			return 0, err
		}
		lastErr = err
	}
	return 0, fmt.Errorf("policy: save %s failed after %d attempts: %w",
		c.Device, cfg.attempts(), lastErr)
}

// Report summarizes one sync pass.
type Report struct {
	// Checkpointed lists devices whose tables were saved this pass.
	Checkpointed []string
	// MergedGroups counts the compatibility groups that produced a merged
	// fleet policy.
	MergedGroups int
	// WarmStarted lists devices seeded from the merged policy this pass.
	WarmStarted []string
	// Errs carries per-device persistence failures; the pass continues past
	// them so one sick device cannot stall the fleet.
	Errs []error
}

// Err joins the pass's failures (nil on a clean pass).
func (r Report) Err() error { return errors.Join(r.Errs...) }

// Syncer is the federation loop: each pass checkpoints every node's current
// Q-table, merges each compatibility group into a fleet policy checkpoint,
// and warm-starts nodes that have not learned anything yet (new or wiped
// devices) from their group's merged policy. Passes run on demand (SyncOnce)
// or on the fleet's virtual clock (MaybeTick), never on a goroutine of their
// own. Generation monotonicity is enforced by the store; save failures retry
// with backoff and are reported, never fatal.
type Syncer struct {
	sink  Sink
	nodes func() []Node
	cfg   SyncConfig

	mu       sync.Mutex
	lastTick float64 // virtual time of the last MaybeTick pass

	// Failure state, guarded by mu: how the sync plane has been doing.
	passes      uint64
	failures    uint64
	consecFails uint64
	lastErr     string
}

// SyncHealth is a point-in-time summary of the sync plane's failure state.
type SyncHealth struct {
	// Passes counts completed sync passes; Failures counts the ones that
	// reported at least one error.
	Passes, Failures uint64
	// ConsecutiveFailures counts failed passes since the last clean one —
	// the signal health endpoints alarm on.
	ConsecutiveFailures uint64
	// LastError is the most recent pass failure ("" after a clean pass).
	LastError string
}

// Health reports the syncer's current failure state.
func (s *Syncer) Health() SyncHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SyncHealth{
		Passes:              s.passes,
		Failures:            s.failures,
		ConsecutiveFailures: s.consecFails,
		LastError:           s.lastErr,
	}
}

// notePass records one pass's outcome.
func (s *Syncer) notePass(rep Report) {
	s.mu.Lock()
	s.passes++
	if err := rep.Err(); err != nil {
		s.failures++
		s.consecFails++
		s.lastErr = err.Error()
	} else {
		s.consecFails = 0
		s.lastErr = ""
	}
	s.mu.Unlock()
}

// NewSyncer builds a syncer over a checkpoint sink and a node source (called
// fresh every pass, so fleets may grow or shrink between passes).
func NewSyncer(sink Sink, nodes func() []Node, cfg SyncConfig) (*Syncer, error) {
	if sink == nil {
		return nil, errors.New("policy: syncer needs a sink")
	}
	if nodes == nil {
		return nil, errors.New("policy: syncer needs a node source")
	}
	return &Syncer{sink: sink, nodes: nodes, cfg: cfg}, nil
}

// SyncOnce runs one full pass synchronously and reports what happened.
func (s *Syncer) SyncOnce() Report {
	rep := s.syncOnce()
	s.notePass(rep)
	return rep
}

func (s *Syncer) syncOnce() Report {
	var rep Report
	type saved struct {
		node Node
		ck   *Checkpoint
	}
	groups := make(map[string][]saved)

	for _, n := range s.nodes() {
		if n.Engine == nil || n.Device == "" {
			continue
		}
		if s.cfg.Unreachable != nil && s.cfg.Unreachable(n.Device) {
			rep.Errs = append(rep.Errs, fmt.Errorf("sync %s: %w", n.Device, ErrPartitioned))
			continue
		}
		snap, err := n.Engine.SnapshotQTable()
		if err != nil {
			rep.Errs = append(rep.Errs, fmt.Errorf("policy: snapshot %s: %w", n.Device, err))
			continue
		}
		hash := n.Engine.ConfigHash()
		ck, err := NewCheckpoint(n.Device, hash, snap)
		if err != nil {
			rep.Errs = append(rep.Errs, err)
			continue
		}
		if _, err := SaveWithRetry(s.sink, ck, s.cfg); err != nil && !errors.Is(err, ErrStaleGeneration) {
			rep.Errs = append(rep.Errs, err)
			// The in-memory table is still mergeable even if persisting it
			// failed; keep it in the group.
		} else if err == nil {
			rep.Checkpointed = append(rep.Checkpointed, n.Device)
		}
		groups[hash] = append(groups[hash], saved{node: n, ck: ck})
	}

	for _, hash := range sortedGroupKeys(groups) {
		group := groups[hash]
		cks := make([]*Checkpoint, len(group))
		for i, g := range group {
			cks[i] = g.ck
		}
		merged, err := Merge(cks)
		if err != nil {
			rep.Errs = append(rep.Errs, err)
			continue
		}
		if merged.States > 0 {
			if _, err := SaveWithRetry(s.sink, merged, s.cfg); err != nil && !errors.Is(err, ErrStaleGeneration) {
				rep.Errs = append(rep.Errs, err)
			} else if err == nil {
				rep.MergedGroups++
			}
		}

		// Warm-start: a node that has never made a decision inherits the
		// fleet's merged experience instead of starting from random rows.
		for _, g := range group {
			if merged.States == 0 || g.node.Engine.Agent().TotalVisits() > 0 {
				continue
			}
			if err := g.node.Engine.RestoreQTable(merged.Snapshot); err != nil {
				rep.Errs = append(rep.Errs, fmt.Errorf("policy: warm-start %s: %w", g.node.Device, err))
				continue
			}
			rep.WarmStarted = append(rep.WarmStarted, g.node.Device)
		}
	}
	return rep
}

func sortedGroupKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MaybeTick runs one pass when at least Interval of virtual time has passed
// since the last ticked pass (the first lands one Interval in, as with a
// ticker). The window is claimed under the lock and the pass runs outside
// it, so concurrent callers with the same now produce exactly one pass.
func (s *Syncer) MaybeTick(now float64) (Report, bool) {
	s.mu.Lock()
	if now-s.lastTick < s.cfg.interval().Seconds() {
		s.mu.Unlock()
		return Report{}, false
	}
	s.lastTick = now
	s.mu.Unlock()
	return s.SyncOnce(), true
}
