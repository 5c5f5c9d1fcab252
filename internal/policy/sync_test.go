package policy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// flakySink fails the first failures SaveNext calls per device, then
// delegates to a real store.
type flakySink struct {
	store    *Store
	failures int
	calls    map[string]int
	stale    map[string]bool
}

func (f *flakySink) SaveNext(c *Checkpoint) (uint64, error) {
	if f.calls == nil {
		f.calls = map[string]int{}
	}
	f.calls[c.Device]++
	if f.stale[c.Device] {
		return 0, fmt.Errorf("replayed writer: %w", ErrStaleGeneration)
	}
	if f.calls[c.Device] <= f.failures {
		return 0, errors.New("disk on fire")
	}
	return f.store.SaveNext(c)
}

func (f *flakySink) Latest(device string) (*Checkpoint, error) { return f.store.Latest(device) }

func syncEngine(t testing.TB, seed int64) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seed), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// learn drives n inferences through an engine so its table holds real
// experience.
func learn(t testing.TB, e *core.Engine, n int) {
	t.Helper()
	m := dnn.MustByName("MobileNet v3")
	for i := 0; i < n; i++ {
		if _, err := e.RunInferenceCtx(nil, m, sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}); err != nil {
			t.Fatal(err)
		}
	}
}

func staticNodes(nodes ...Node) func() []Node {
	return func() []Node { return nodes }
}

func TestSaveWithRetryBacksOff(t *testing.T) {
	st := testStore(t, 0)
	var slept []time.Duration
	cfg := SyncConfig{MaxAttempts: 3, Backoff: 10 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}

	sink := &flakySink{store: st, failures: 2}
	gen, err := SaveWithRetry(sink, ckWithQ(t, "dev", 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("gen = %d, want 1", gen)
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule: %v, want [10ms 20ms]", slept)
	}

	// Persistent failure exhausts attempts and reports the cause.
	slept = nil
	dead := &flakySink{store: st, failures: 1 << 30}
	if _, err := SaveWithRetry(dead, ckWithQ(t, "dev", 1), cfg); err == nil {
		t.Fatal("persistent store failure reported as success")
	} else if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("error hides the cause: %v", err)
	}
	if dead.calls["dev"] != 3 {
		t.Fatalf("attempts = %d, want 3", dead.calls["dev"])
	}
}

func TestSaveWithRetryStaleIsTerminal(t *testing.T) {
	st := testStore(t, 0)
	sink := &flakySink{store: st, stale: map[string]bool{"dev": true}}
	var slept int
	cfg := SyncConfig{MaxAttempts: 5, Backoff: time.Millisecond,
		Sleep: func(time.Duration) { slept++ }}
	if _, err := SaveWithRetry(sink, ckWithQ(t, "dev", 1), cfg); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("err = %v, want ErrStaleGeneration", err)
	}
	if sink.calls["dev"] != 1 || slept != 0 {
		t.Fatalf("stale save retried: %d calls, %d sleeps", sink.calls["dev"], slept)
	}
}

// TestSyncOnceCheckpointsMergesWarmStarts is the federation round trip: two
// experienced nodes and one cold node of the same configuration; one pass
// must checkpoint the experienced pair, publish a merged fleet policy, and
// seed the cold node from it.
func TestSyncOnceCheckpointsMergesWarmStarts(t *testing.T) {
	st := testStore(t, 0)
	veteran1, veteran2, rookie := syncEngine(t, 1), syncEngine(t, 2), syncEngine(t, 3)
	learn(t, veteran1, 25)
	learn(t, veteran2, 25)
	if rookie.Agent().TotalVisits() != 0 {
		t.Fatal("rookie not cold")
	}

	syncer, err := NewSyncer(st, staticNodes(
		Node{Device: "edge-1", Engine: veteran1},
		Node{Device: "edge-2", Engine: veteran2},
		Node{Device: "edge-3", Engine: rookie},
	), SyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := syncer.SyncOnce()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpointed) != 3 {
		t.Fatalf("checkpointed %v, want all three", rep.Checkpointed)
	}
	if rep.MergedGroups != 1 {
		t.Fatalf("merged groups = %d, want 1", rep.MergedGroups)
	}
	if len(rep.WarmStarted) != 1 || rep.WarmStarted[0] != "edge-3" {
		t.Fatalf("warm-started %v, want [edge-3]", rep.WarmStarted)
	}

	// The rookie now carries the fleet's experience.
	if rookie.Agent().TotalVisits() == 0 {
		t.Fatal("rookie still cold after warm-start")
	}
	hash := veteran1.ConfigHash()
	if rookie.ConfigHash() != hash {
		t.Fatal("config hash not deterministic across same-config engines")
	}
	fleet, err := st.Latest(FleetDevice(hash))
	if err != nil {
		t.Fatalf("merged fleet policy not persisted: %v", err)
	}
	if len(fleet.Sources) != 3 {
		t.Fatalf("fleet sources: %v", fleet.Sources)
	}
	if fleet.States == 0 || fleet.Meta.TotalVisits() == 0 {
		t.Fatalf("empty fleet policy: %+v", fleet.Meta)
	}

	// A second pass bumps generations; warm-start does not repeat.
	rep = syncer.SyncOnce()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.WarmStarted) != 0 {
		t.Fatalf("second pass warm-started %v", rep.WarmStarted)
	}
	if g := st.LatestGeneration("edge-1"); g != 2 {
		t.Fatalf("edge-1 generation after two passes = %d, want 2", g)
	}
}

// TestSyncOnceSickStoreDoesNotStallFleet: persistence failures land in
// Report.Errs but the pass still merges in-memory tables and warm-starts.
func TestSyncOnceSickStoreDoesNotStallFleet(t *testing.T) {
	st := testStore(t, 0)
	veteran, rookie := syncEngine(t, 1), syncEngine(t, 2)
	learn(t, veteran, 25)

	sink := &flakySink{store: st, failures: 1 << 30}
	syncer, err := NewSyncer(sink, staticNodes(
		Node{Device: "edge-1", Engine: veteran},
		Node{Device: "edge-2", Engine: rookie},
	), SyncConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := syncer.SyncOnce()
	if rep.Err() == nil {
		t.Fatal("sick store produced a clean report")
	}
	if len(rep.Checkpointed) != 0 {
		t.Fatalf("checkpointed through a dead sink: %v", rep.Checkpointed)
	}
	// Federation still happened in memory.
	if len(rep.WarmStarted) != 1 || rep.WarmStarted[0] != "edge-2" {
		t.Fatalf("warm-started %v, want [edge-2] despite store failure", rep.WarmStarted)
	}
	if rookie.Agent().TotalVisits() == 0 {
		t.Fatal("rookie still cold")
	}
}

// TestSyncerMaybeTick: passes land on the virtual clock, one Interval after
// the last ticked pass, the first one Interval in.
func TestSyncerMaybeTick(t *testing.T) {
	st := testStore(t, 0)
	engine := syncEngine(t, 1)
	learn(t, engine, 5)
	syncer, err := NewSyncer(st, staticNodes(Node{Device: "edge-1", Engine: engine}),
		SyncConfig{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		now  float64
		pass bool
	}{{0.5, false}, {1, true}, {1.9, false}, {2.2, true}, {2.5, false}} {
		rep, ok := syncer.MaybeTick(step.now)
		if ok != step.pass {
			t.Fatalf("MaybeTick(%v) ran = %v, want %v", step.now, ok, step.pass)
		}
		if ok && rep.Err() != nil {
			t.Fatal(rep.Err())
		}
	}
	if h := syncer.Health(); h.Passes != 2 {
		t.Fatalf("passes = %d, want 2", h.Passes)
	}
	if g := st.LatestGeneration("edge-1"); g != 2 {
		t.Fatalf("edge-1 generation = %d, want 2", g)
	}
}

// TestSyncerMaybeTickConcurrent: eight callers walk one shared virtual
// timeline in lock step; each crossed interval runs exactly one pass, however
// the callers interleave. Run under -race.
func TestSyncerMaybeTickConcurrent(t *testing.T) {
	const callers, steps, perInterval = 8, 40, 4 // 0.25 s steps, 1 s interval
	engine := syncEngine(t, 1)
	learn(t, engine, 5)
	syncer, err := NewSyncer(testStore(t, 0), staticNodes(Node{Device: "edge-1", Engine: engine}),
		SyncConfig{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= steps; step++ {
		now := float64(step) / perInterval
		var ran atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, ok := syncer.MaybeTick(now); ok {
					ran.Add(1)
				}
			}()
		}
		wg.Wait()
		want := int64(0)
		if step%perInterval == 0 {
			want = 1
		}
		if got := ran.Load(); got != want {
			t.Fatalf("t=%v: %d passes, want %d", now, got, want)
		}
	}
	if h := syncer.Health(); h.Passes != steps/perInterval {
		t.Fatalf("passes = %d, want %d", h.Passes, steps/perInterval)
	}
}
