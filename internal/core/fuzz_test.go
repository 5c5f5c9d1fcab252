package core

import (
	"testing"

	"autoscale/internal/rl"
)

// FuzzStateKey hammers StateSpace.Lookup, which decodes every checkpoint key
// (rl.Restore) and every transfer key (rl.Agent.ImportMapped), on the full
// Table I space and on each single-feature ablation the ablation experiment
// runs. Every index must round-trip through KeyOf and Lookup, and any string
// Lookup accepts must be exactly the key KeyOf renders for the index it
// returns, so no two spellings reach one state. It runs in the `make fuzz`
// smoke.
func FuzzStateKey(f *testing.F) {
	spaces := []*StateSpace{NewStateSpace()}
	for g := Feature(0); g < numFeatures; g++ {
		spaces = append(spaces, NewStateSpace().Disable(g))
	}
	for _, ss := range spaces {
		for i := int32(0); int(i) < ss.Size(); i++ {
			if j, ok := ss.Lookup(ss.KeyOf(i)); !ok || j != i {
				f.Fatalf("Lookup(KeyOf(%d)) = (%d, %v) on %q", i, j, ok, ss.KeyOf(0))
			}
		}
		f.Add(string(ss.KeyOf(0)))
		f.Add(string(ss.KeyOf(int32(ss.Size() - 1))))
	}
	for _, seed := range []string{
		"10|0|0|0|0|0|0|0", // a two-digit bin
		"00|0|0|0|0|0|0|0", // a leading zero
		"0|0|0|01|0|0|0|0",
		"*|0|0|0|0|0|0|0",  // '*' on a feature the full space enables
		"0|0|0|0|0|0|0|0",  // a digit on the feature each ablation disables
		"0|0|0|0|0|0|0|",   // 14 bytes
		"0|0|0|0|0|0|0|00", // 16 bytes
		"0|0|0|0|0|0|0|0|",
		"0|0|0|0|0|0|0|\xff",
		"\xc3\xa9|0|0|0|0|0|0",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, key string) {
		for _, ss := range spaces {
			i, ok := ss.Lookup(rl.State(key))
			if !ok {
				continue
			}
			if i < 0 || int(i) >= ss.Size() {
				t.Fatalf("Lookup(%q) = %d, outside [0, %d)", key, i, ss.Size())
			}
			if got := ss.KeyOf(i); string(got) != key {
				t.Fatalf("Lookup(%q) = %d, which renders %q", key, i, got)
			}
		}
	})
}
