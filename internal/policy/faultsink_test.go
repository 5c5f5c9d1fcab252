package policy

import (
	"errors"
	"testing"
	"time"
)

// scriptedVerdict builds a FaultSink clock/verdict pair from a fixed ruling
// the test flips at will.
type scriptedVerdict struct {
	now float64
	v   IOVerdict
}

func (s *scriptedVerdict) wire(f *FaultSink) {
	f.Now = func() float64 { return s.now }
	f.Verdict = func(string, float64) IOVerdict { return s.v }
}

func TestFaultSinkTransparentWhenHealthy(t *testing.T) {
	store, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &FaultSink{Inner: store} // no Verdict/Now: transparent proxy
	e := syncEngine(t, 1)
	learn(t, e, 5)
	snap, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewCheckpoint("phone-0", e.ConfigHash(), snap)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := f.SaveNext(ck)
	if err != nil || gen != 1 {
		t.Fatalf("healthy save: gen=%d err=%v", gen, err)
	}
	got, err := f.Latest("phone-0")
	if err != nil || got.Generation != 1 {
		t.Fatalf("healthy read: %+v err=%v", got, err)
	}
}

func TestFaultSinkInjectedFailures(t *testing.T) {
	store, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sv := &scriptedVerdict{}
	f := &FaultSink{Inner: store}
	sv.wire(f)
	e := syncEngine(t, 2)
	learn(t, e, 5)
	snap, _ := e.SnapshotQTable()
	ck, err := NewCheckpoint("phone-0", e.ConfigHash(), snap)
	if err != nil {
		t.Fatal(err)
	}

	// Generation 1 lands while healthy.
	if _, err := f.SaveNext(ck); err != nil {
		t.Fatal(err)
	}

	// write_fail: saves rejected, reads still serve the prior generation.
	sv.v = IOFailWrite
	if _, err := f.SaveNext(ck); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("write under write_fail: %v, want ErrInjectedIO", err)
	}
	if got, err := f.Latest("phone-0"); err != nil || got.Generation != 1 {
		t.Fatalf("read under write_fail: %+v err=%v", got, err)
	}

	// disk_full: everything fails; the store underneath is untouched.
	sv.v = IOFailAll
	if _, err := f.SaveNext(ck); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("write under disk_full: %v", err)
	}
	if _, err := f.Latest("phone-0"); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("read under disk_full: %v", err)
	}
	if got, err := store.Latest("phone-0"); err != nil || got.Generation != 1 {
		t.Fatalf("raw store lost the table: %+v err=%v", got, err)
	}

	// slow_fsync: saves succeed and are counted.
	sv.v = IOSlow
	if _, err := f.SaveNext(ck); err != nil {
		t.Fatalf("write under slow_fsync: %v", err)
	}
	slow, failedW, failedR := f.Stats()
	if slow != 1 || failedW != 2 || failedR != 1 {
		t.Fatalf("stats = (%d slow, %d failed writes, %d failed reads), want (1, 2, 1)",
			slow, failedW, failedR)
	}
}

// TestFaultSinkRetryFallsBackToStore pins the quarantine/fallback behavior
// the chaos soak leans on: SaveWithRetry against a failing sink surfaces the
// injected error after its attempts, the prior generation survives in the
// raw store, and once the fault clears the next save resumes the generation
// sequence (the generation guard stays intact).
func TestFaultSinkRetryFallsBackToStore(t *testing.T) {
	store, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sv := &scriptedVerdict{}
	f := &FaultSink{Inner: store}
	sv.wire(f)
	e := syncEngine(t, 3)
	learn(t, e, 5)
	snap, _ := e.SnapshotQTable()
	ck, err := NewCheckpoint("phone-0", e.ConfigHash(), snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SyncConfig{MaxAttempts: 3, Sleep: func(time.Duration) {}}

	if _, err := SaveWithRetry(f, ck, cfg); err != nil {
		t.Fatal(err)
	}
	sv.v = IOFailWrite
	if _, err := SaveWithRetry(f, ck, cfg); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("retry under persistent write_fail: %v", err)
	}
	// Fault clears: next save is generation 2, no gap, no stale guard trip.
	sv.v = IOHealthy
	gen, err := SaveWithRetry(f, ck, cfg)
	if err != nil || gen != 2 {
		t.Fatalf("post-fault save: gen=%d err=%v", gen, err)
	}
	if got, err := store.Latest("phone-0"); err != nil || got.Generation != 2 {
		t.Fatalf("store after recovery: %+v err=%v", got, err)
	}
}

// TestSyncerHealthTracking pins the sync-plane failure surface: consecutive
// failure counting, last-error capture and reset on a clean pass (what the
// serving tier exports to /healthz).
func TestSyncerHealthTracking(t *testing.T) {
	store, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := syncEngine(t, 4)
	learn(t, e, 5)

	partitioned := true
	s, err := NewSyncer(store, staticNodes(Node{Device: "phone-0", Engine: e}), SyncConfig{
		Sleep:       func(time.Duration) {},
		Unreachable: func(string) bool { return partitioned },
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		rep := s.SyncOnce()
		if !errors.Is(rep.Err(), ErrPartitioned) {
			t.Fatalf("pass %d: %v, want ErrPartitioned", i, rep.Err())
		}
	}
	h := s.Health()
	if h.Passes != 3 || h.Failures != 3 || h.ConsecutiveFailures != 3 {
		t.Fatalf("health after 3 failures: %+v", h)
	}
	if h.LastError == "" {
		t.Fatal("no last error recorded")
	}

	// Partition heals: the pass succeeds and the consecutive counter resets.
	partitioned = false
	if rep := s.SyncOnce(); rep.Err() != nil {
		t.Fatalf("healed pass: %v", rep.Err())
	}
	h = s.Health()
	if h.Passes != 4 || h.Failures != 3 || h.ConsecutiveFailures != 0 || h.LastError != "" {
		t.Fatalf("health after heal: %+v", h)
	}
}

// TestSyncPartitionSkipsDeviceButServesOthers checks a partitioned node is
// skipped (reported, not synced) while the rest of the fleet still
// checkpoints.
func TestSyncPartitionSkipsDeviceButServesOthers(t *testing.T) {
	store, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := syncEngine(t, 5), syncEngine(t, 6)
	learn(t, ea, 5)
	learn(t, eb, 5)
	s, err := NewSyncer(store, staticNodes(
		Node{Device: "phone-a", Engine: ea},
		Node{Device: "phone-b", Engine: eb},
	), SyncConfig{
		Sleep:       func(time.Duration) {},
		Unreachable: func(dev string) bool { return dev == "phone-b" },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.SyncOnce()
	if !errors.Is(rep.Err(), ErrPartitioned) {
		t.Fatalf("report: %v", rep.Err())
	}
	if _, err := store.Latest("phone-a"); err != nil {
		t.Fatalf("reachable device not checkpointed: %v", err)
	}
	if _, err := store.Latest("phone-b"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("partitioned device was checkpointed: %v", err)
	}
}
