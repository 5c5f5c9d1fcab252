package policy

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is the crash-safe checkpoint store: one directory per device, one
// envelope file per generation. Writes go through a temp file, fsync and an
// atomic rename, so a crash mid-save leaves at worst an ignored temp file
// and never a torn checkpoint under a live name. Loads verify the envelope
// checksum and quarantine corrupt files (renamed to *.corrupt) so the next
// valid generation is used instead. A Store is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	retain int
}

// DefaultRetain is the number of generations kept per device when Open is
// given a non-positive retention.
const DefaultRetain = 5

const (
	ckptExt       = ".ckpt"
	quarantineExt = ".corrupt"
	tmpPrefix     = ".tmp-"
	genPrefix     = "gen-"
)

// Open creates (or reopens) a store rooted at dir, keeping the last retain
// generations per device (<=0 means DefaultRetain).
func Open(dir string, retain int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("policy: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("policy: open store: %w", err)
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Store{dir: dir, retain: retain}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Sink is the store surface the gateway and syncer depend on; tests
// substitute failing or counting implementations. *Store satisfies it.
type Sink interface {
	// SaveNext persists a checkpoint under the device's next generation
	// and returns the generation assigned.
	SaveNext(c *Checkpoint) (uint64, error)
	// Latest returns the newest valid checkpoint for a device
	// (ErrNoCheckpoint when there is none).
	Latest(device string) (*Checkpoint, error)
}

var _ Sink = (*Store)(nil)

// Corrupter is the optional drill surface a sink may implement: damage the
// newest on-disk checkpoint in place. The fault injector's
// checkpoint_corrupt events use it to prove, in a live gateway, that the
// quarantine-and-fall-back machinery actually recovers.
type Corrupter interface {
	// CorruptLatest flips bytes inside the device's newest checkpoint file
	// and returns the generation damaged (ErrNoCheckpoint when the device
	// has none).
	CorruptLatest(device string) (uint64, error)
}

var _ Corrupter = (*Store)(nil)

// CorruptLatest damages the device's newest on-disk checkpoint by flipping
// a byte in the middle of the payload — simulating silent media corruption.
// The next Latest call will fail verification on it, quarantine it to
// *.corrupt, and fall back to the previous generation.
func (s *Store) CorruptLatest(device string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.deviceDir(device)
	gens := generationsLocked(dir)
	if len(gens) == 0 {
		return 0, fmt.Errorf("%w for device %s", ErrNoCheckpoint, device)
	}
	gen := gens[len(gens)-1]
	path := filepath.Join(dir, genFile(gen))
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("policy: corrupt drill: %w", err)
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("policy: corrupt drill: %s is empty", path)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("policy: corrupt drill: %w", err)
	}
	return gen, nil
}

// sanitizeDevice maps a device name onto a safe directory name. Latest and
// History match on the device name stored in the envelope, so two names that
// sanitize to the same directory still resolve correctly.
func sanitizeDevice(device string) string {
	var b strings.Builder
	for _, r := range device {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_device"
	}
	return b.String()
}

func (s *Store) deviceDir(device string) string {
	return filepath.Join(s.dir, sanitizeDevice(device))
}

func genFile(gen uint64) string {
	return fmt.Sprintf("%s%016x%s", genPrefix, gen, ckptExt)
}

// parseGen extracts the generation from a checkpoint file name, or ok=false
// for temp files, quarantined files and strangers.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) || !strings.HasSuffix(name, ckptExt) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, genPrefix), ckptExt)
	gen, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// generationsLocked lists the on-disk generations of a device dir ascending.
func generationsLocked(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := parseGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// SaveNext persists a checkpoint under the device's next generation
// (newest on disk + 1, or 1) and returns the generation assigned.
func (s *Store) SaveNext(c *Checkpoint) (uint64, error) {
	if c == nil || c.Device == "" {
		return 0, fmt.Errorf("policy: save needs a named checkpoint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := uint64(1)
	if gens := generationsLocked(s.deviceDir(c.Device)); len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	if err := s.saveLocked(c, gen); err != nil {
		return 0, err
	}
	return gen, nil
}

func (s *Store) saveLocked(c *Checkpoint, gen uint64) error {
	dir := s.deviceDir(c.Device)
	if gens := generationsLocked(dir); len(gens) > 0 && gen <= gens[len(gens)-1] {
		return fmt.Errorf("%w: generation %d <= newest on disk %d (device %s)",
			ErrStaleGeneration, gen, gens[len(gens)-1], c.Device)
	}
	stamped := *c
	stamped.Generation = gen
	data, err := Encode(&stamped)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("policy: save: %w", err)
	}

	// Crash safety: temp file in the same directory, fsync, atomic rename,
	// then best-effort directory sync so the rename itself is durable.
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*"+ckptExt)
	if err != nil {
		return fmt.Errorf("policy: save: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("policy: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("policy: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("policy: save: %w", err)
	}
	final := filepath.Join(dir, genFile(gen))
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return fmt.Errorf("policy: save: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}

	c.Generation = gen
	s.retireLocked(dir)
	return nil
}

// retireLocked enforces retention (keep the newest s.retain generations) and
// sweeps stale temp files left by crashed writers.
func (s *Store) retireLocked(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	gens := generationsLocked(dir)
	for len(gens) > s.retain {
		os.Remove(filepath.Join(dir, genFile(gens[0])))
		gens = gens[1:]
	}
}

// Latest returns the newest valid checkpoint for a device. Files that fail
// envelope verification (torn, truncated, bit-flipped, wrong version) or
// that belong to a different device (directory-name collision) are skipped;
// verification failures are additionally quarantined by renaming to
// *.corrupt so they stop shadowing older valid generations. When nothing
// valid remains, Latest returns ErrNoCheckpoint.
func (s *Store) Latest(device string) (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.deviceDir(device)
	gens := generationsLocked(dir)
	for i := len(gens) - 1; i >= 0; i-- {
		path := filepath.Join(dir, genFile(gens[i]))
		ck, err := s.loadLocked(path)
		if err != nil {
			os.Rename(path, path+quarantineExt)
			continue
		}
		if ck.Device != device {
			continue
		}
		return ck, nil
	}
	return nil, fmt.Errorf("%w for device %s", ErrNoCheckpoint, device)
}

// LatestGeneration returns the newest valid generation for a device (0 when
// none exists). Unlike Latest it never quarantines: it is a read-only probe.
func (s *Store) LatestGeneration(device string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.deviceDir(device)
	gens := generationsLocked(dir)
	for i := len(gens) - 1; i >= 0; i-- {
		ck, err := s.loadLocked(filepath.Join(dir, genFile(gens[i])))
		if err == nil && ck.Device == device {
			return ck.Generation
		}
	}
	return 0
}

func (s *Store) loadLocked(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return ck, nil
}

// History returns the metadata of every valid on-disk checkpoint for a
// device, ascending by generation. Corrupt files are skipped (not
// quarantined — History is read-only).
func (s *Store) History(device string) ([]Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.deviceDir(device)
	var out []Meta
	for _, gen := range generationsLocked(dir) {
		ck, err := s.loadLocked(filepath.Join(dir, genFile(gen)))
		if err != nil || ck.Device != device {
			continue
		}
		out = append(out, ck.Meta)
	}
	return out, nil
}

// Devices lists every device name with at least one valid checkpoint,
// sorted. Merged fleet policies appear under their FleetDevice names.
func (s *Store) Devices() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("policy: devices: %w", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.dir, e.Name())
		for _, gen := range generationsLocked(dir) {
			if ck, err := s.loadLocked(filepath.Join(dir, genFile(gen))); err == nil {
				seen[ck.Device] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(seen)), nil
}
