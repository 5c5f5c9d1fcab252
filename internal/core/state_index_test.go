package core

import (
	"sort"
	"testing"

	"autoscale/internal/rl"
)

// The dense index <-> string key conversion must be a bijection over the
// full state space: every index renders to a unique canonical key, and every
// key parses back to its index.
func TestStateIndexKeyBijection(t *testing.T) {
	spaces := map[string]*StateSpace{
		"full":    NewStateSpace(),
		"ablated": NewStateSpace().Disable(FeatMAC).Disable(FeatRSSIP),
		"single":  NewStateSpace().Disable(FeatConv).Disable(FeatFC).Disable(FeatRC).Disable(FeatMAC).Disable(FeatCoCPU).Disable(FeatCoMem).Disable(FeatRSSIP),
	}
	for name, ss := range spaces {
		t.Run(name, func(t *testing.T) {
			n := ss.Size()
			seen := make(map[string]int32, n)
			for i := int32(0); int(i) < n; i++ {
				key := ss.KeyOf(i)
				if key == "" {
					t.Fatalf("KeyOf(%d) rendered empty", i)
				}
				if prev, dup := seen[string(key)]; dup {
					t.Fatalf("KeyOf(%d) == KeyOf(%d) == %q", i, prev, key)
				}
				seen[string(key)] = i
				j, ok := ss.Lookup(key)
				if !ok || j != i {
					t.Fatalf("Lookup(KeyOf(%d)) = (%d, %v), want (%d, true)", i, j, ok, i)
				}
			}
			if len(seen) != n {
				t.Fatalf("rendered %d unique keys, want %d", len(seen), n)
			}
		})
	}
}

// Ascending index order must equal ascending lexicographic key order — the
// nearest-neighbour seeder relies on scanning materialized indices in the
// same order the map-backed table scanned sorted string keys.
func TestStateIndexOrderMatchesKeyOrder(t *testing.T) {
	ss := NewStateSpace()
	n := ss.Size()
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = string(ss.KeyOf(int32(i)))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("index order does not match lexicographic key order")
	}
}

// Key and Index must agree: the string key of an observation is the rendering
// of its dense index.
func TestKeyMatchesIndex(t *testing.T) {
	ss := NewStateSpace()
	obs := []Observation{
		{},
		{NumConv: 100, NumFC: 20, NumRC: 20, MACs: 3000e6, CoCPU: 90, CoMem: 90, RSSIW: -85, RSSIP: -85},
		{NumConv: 35, NumFC: 5, NumRC: 12, MACs: 1500e6, CoCPU: 10, CoMem: 50, RSSIW: -60, RSSIP: -90},
		{NumConv: 60, MACs: 500e6, CoCPU: 0.4, CoMem: 30, RSSIW: -80, RSSIP: -70},
	}
	for _, o := range obs {
		if got, want := ss.Key(o), ss.KeyOf(ss.Index(o)); got != want {
			t.Fatalf("Key(%+v) = %q, KeyOf(Index) = %q", o, got, want)
		}
	}
}

// Lookup must reject keys this space could not have rendered.
func TestLookupRejectsAlienKeys(t *testing.T) {
	ss := NewStateSpace()
	ablated := NewStateSpace().Disable(FeatMAC)
	cases := []struct {
		ss  *StateSpace
		key string
	}{
		{ss, ""},
		{ss, "0|1|0|1|0|0|1"},        // seven features
		{ss, "0|1|0|1|0|0|1|1|0"},    // nine features
		{ss, "*|1|0|1|0|0|1|1"},      // '*' on an enabled feature
		{ss, "9|1|0|1|0|0|1|1"},      // bin out of range (SCONV has 4 bins)
		{ss, "0|1|0|1|0|0|1|2"},      // bin out of range (SRSSI_P has 2 bins)
		{ss, "00|1|0|1|0|0|1|1"},     // non-canonical digits
		{ss, "0|1|0|1|0|0|1|x"},      // non-digit
		{ablated, "0|1|0|1|0|0|1|1"}, // digit where the ablation renders '*'
	}
	for _, c := range cases {
		if i, ok := c.ss.Lookup(rl.State(c.key)); ok {
			t.Fatalf("Lookup(%q) accepted as %d", c.key, i)
		}
	}
}

// BinsOf must decode indices consistently with KeyOf and Lookup: in a
// Table I space with one feature ablated and with several.
func TestBinsOfDecodes(t *testing.T) {
	spaces := []struct {
		name string
		ss   *StateSpace
	}{
		{"table", NewStateSpace().Disable(FeatRC)},
		{"multi", NewStateSpace().Disable(FeatConv).Disable(FeatRC).Disable(FeatCoMem).Disable(FeatRSSIP)},
	}
	for _, sp := range spaces {
		name, ss := sp.name, sp.ss
		o := Observation{NumConv: 35, NumFC: 5, NumRC: 12, MACs: 1.5e9, CoCPU: 10, CoMem: 50, RSSIW: -60, RSSIP: -90}
		if got, want := ss.Key(o), ss.KeyOf(ss.Index(o)); got != want {
			t.Fatalf("%s: Key = %q, KeyOf(Index) = %q", name, got, want)
		}
		var bins [NumFeatures]int
		if ss.BinsOf(int32(ss.Size()), &bins) {
			t.Fatalf("%s: BinsOf accepted out-of-range index", name)
		}
		for i := int32(0); int(i) < ss.Size(); i++ {
			if !ss.BinsOf(i, &bins) {
				t.Fatalf("%s: BinsOf(%d) failed", name, i)
			}
			for f := Feature(0); f < numFeatures; f++ {
				if ss.Enabled(f) != (bins[f] >= 0) || bins[f] >= ss.Bins(f) {
					t.Fatalf("%s: BinsOf(%d): %s decoded %d (enabled %v, %d bins)", name, i, f, bins[f], ss.Enabled(f), ss.Bins(f))
				}
			}
			if got := renderBins(&bins); got != ss.KeyOf(i) {
				t.Fatalf("%s: BinsOf(%d) renders %q, KeyOf %q", name, i, got, ss.KeyOf(i))
			}
			if j, ok := ss.Lookup(ss.KeyOf(i)); !ok || j != i {
				t.Fatalf("%s: Lookup(KeyOf(%d)) = %d, %v", name, i, j, ok)
			}
		}
	}
}

// BinsOf decodes a dense index into per-feature bins, the test-side inverse
// of Index; disabled features decode as -1. It reports false for
// out-of-range indices.
func (s *StateSpace) BinsOf(i int32, bins *[NumFeatures]int) bool {
	c := s.cacheLoad()
	if i < 0 || int(i) >= c.size {
		return false
	}
	s.decodeEnabled(c, i, bins)
	return true
}
