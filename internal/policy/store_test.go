package policy

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoscale/internal/rl"
)

func testStore(t testing.TB, retain int) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), retain)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// ckWithQ builds a checkpoint whose single row carries a recognizable value,
// so generations can be told apart after reload.
func ckWithQ(t testing.TB, device string, q float64) *Checkpoint {
	t.Helper()
	snap := testSnapshot(t, 2, map[rl.State][]float64{"s": {q, 0}}, map[rl.State]int{"s": 1})
	ck, err := NewCheckpoint(device, "feedface00000000", snap)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func qOf(t testing.TB, ck *Checkpoint) float64 {
	t.Helper()
	tbl, err := ck.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Q["s"][0]
}

func TestStoreSaveNextAndLatest(t *testing.T) {
	st := testStore(t, 0)
	if _, err := st.Latest("Mi8Pro"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Latest: %v, want ErrNoCheckpoint", err)
	}
	for i, q := range []float64{1, 2, 3} {
		gen, err := st.SaveNext(ckWithQ(t, "Mi8Pro", q))
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i+1) {
			t.Fatalf("generation %d assigned, want %d", gen, i+1)
		}
	}
	ck, err := st.Latest("Mi8Pro")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Generation != 3 || qOf(t, ck) != 3 {
		t.Fatalf("Latest = gen %d q %v, want gen 3 q 3", ck.Generation, qOf(t, ck))
	}
	if g := st.LatestGeneration("Mi8Pro"); g != 3 {
		t.Fatalf("LatestGeneration = %d, want 3", g)
	}
	history, err := st.History("Mi8Pro")
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 3 || history[0].Generation != 1 || history[2].Generation != 3 {
		t.Fatalf("history: %+v", history)
	}
	devices, err := st.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 1 || devices[0] != "Mi8Pro" {
		t.Fatalf("devices: %v", devices)
	}
}

func TestStoreStaleGenerationGuard(t *testing.T) {
	st := testStore(t, 0)
	ck := ckWithQ(t, "dev", 1)
	ck.Generation = 5
	if err := st.Save(ck); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []uint64{5, 4, 1} {
		stale := ckWithQ(t, "dev", 9)
		stale.Generation = gen
		if err := st.Save(stale); !errors.Is(err, ErrStaleGeneration) {
			t.Fatalf("Save(gen %d) after gen 5: %v, want ErrStaleGeneration", gen, err)
		}
	}
	// The newer learning survives.
	ck6 := ckWithQ(t, "dev", 6)
	ck6.Generation = 6
	if err := st.Save(ck6); err != nil {
		t.Fatal(err)
	}
	latest, err := st.Latest("dev")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Generation != 6 || qOf(t, latest) != 6 {
		t.Fatalf("latest = gen %d q %v", latest.Generation, qOf(t, latest))
	}
}

func TestStoreRetention(t *testing.T) {
	st := testStore(t, 2)
	for q := 1.0; q <= 5; q++ {
		if _, err := st.SaveNext(ckWithQ(t, "dev", q)); err != nil {
			t.Fatal(err)
		}
	}
	history, err := st.History("dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 || history[0].Generation != 4 || history[1].Generation != 5 {
		t.Fatalf("retention kept: %+v", history)
	}
}

// TestStoreCorruptLatestFallsBack is the crash-recovery contract: a
// corrupted newest checkpoint is quarantined and the previous valid
// generation is served instead — never garbage, never a hard failure.
func TestStoreCorruptLatestFallsBack(t *testing.T) {
	st := testStore(t, 0)
	for q := 1.0; q <= 3; q++ {
		if _, err := st.SaveNext(ckWithQ(t, "dev", q)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt generation 3 on disk (overwrite the middle of the file).
	path := filepath.Join(st.Dir(), "dev", genFile(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)/2:], "XXXXXXXXXXXXXXXX")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ck, err := st.Latest("dev")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Generation != 2 || qOf(t, ck) != 2 {
		t.Fatalf("fallback = gen %d q %v, want gen 2 q 2", ck.Generation, qOf(t, ck))
	}
	if _, err := os.Stat(path + quarantineExt); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still live under its checkpoint name")
	}
	// A truncated-to-zero latest (torn write) behaves the same. The
	// quarantine freed generation 3's filename, so SaveNext reuses it.
	gen, err := st.SaveNext(ckWithQ(t, "dev", 4))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("SaveNext after quarantine assigned gen %d, want 3", gen)
	}
	empty := filepath.Join(st.Dir(), "dev", genFile(gen))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err = st.Latest("dev")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Generation != 2 {
		t.Fatalf("fallback past empty file = gen %d, want 2", ck.Generation)
	}
}

func TestStoreSanitizesDeviceNames(t *testing.T) {
	st := testStore(t, 0)
	device := "rack-1/phone:A é"
	if _, err := st.SaveNext(ckWithQ(t, device, 1)); err != nil {
		t.Fatal(err)
	}
	ck, err := st.Latest(device)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Device != device {
		t.Fatalf("device round-trip: %q", ck.Device)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.ContainsAny(e.Name(), "/:") {
			t.Fatalf("unsafe directory name %q", e.Name())
		}
	}
}

func TestStoreSweepsTempFiles(t *testing.T) {
	st := testStore(t, 0)
	dir := filepath.Join(st.Dir(), "dev")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A leftover from a crashed writer.
	leftover := filepath.Join(dir, tmpPrefix+"crashed"+ckptExt)
	if err := os.WriteFile(leftover, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveNext(ckWithQ(t, "dev", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("crashed temp file not swept")
	}
	// The leftover never counted as a checkpoint.
	if g := st.LatestGeneration("dev"); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
}

// Save persists a checkpoint under its explicit generation. It refuses
// generations at or below the device's newest on-disk generation
// (ErrStaleGeneration) — the guard that keeps a delayed or replayed writer
// from clobbering fresher learning.
func (s *Store) Save(c *Checkpoint) error {
	if c == nil || c.Device == "" {
		return errors.New("policy: save needs a named checkpoint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked(c, c.Generation)
}
