package rl

import (
	"math"
	"testing"

	"autoscale/internal/obs"
)

// TestSelectActionProvMirrorsPlain: two agents with identical seeds must
// take identical action sequences whether or not the one selection routine
// is handed a provenance pointer — capture consumes no RNG draws — and the
// captured provenance must be internally consistent with the choice.
func TestSelectActionProvMirrorsPlain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	cfg.Epsilon = 0.3 // high enough to exercise both branches
	plain, traced := newTestAgent(t, cfg, 4), newTestAgent(t, cfg, 4)

	states := []int32{3, 11, 7}
	for _, s := range states { // row-init draws, identical on both
		if _, err := plain.SelectActionIdx(s, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := traced.SelectActionIdx(s, nil); err != nil {
			t.Fatal(err)
		}
	}

	masks := [][]bool{nil, {true, true, true, true}, {true, false, true, true}, {false, true, false, true}}
	var p obs.Provenance
	explored, exploited := 0, 0
	for step := 0; step < 400; step++ {
		mask := masks[step%len(masks)]
		i1 := states[step%len(states)]
		i2, ok := traced.StateIndex(plain.KeyOf(i1))
		if !ok || i1 != i2 {
			t.Fatalf("state index does not round-trip through its key: %v %d/%d", ok, i1, i2)
		}
		a1, err1 := plain.SelectActionIdx(i1, mask)
		a2, err2 := traced.SelectIdx(i2, mask, &p)
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: errors %v / %v", step, err1, err2)
		}
		if a1 != a2 {
			t.Fatalf("step %d: plain chose %d, traced chose %d", step, a1, a2)
		}
		if len(p.Q) != 4 {
			t.Fatalf("step %d: Q row has %d entries, want 4", step, len(p.Q))
		}
		if p.Epsilon != cfg.Epsilon || p.Frozen {
			t.Fatalf("step %d: prov = %+v", step, p)
		}
		if mask != nil && !mask[a2] {
			t.Fatalf("step %d: chose masked-out action %d", step, a2)
		}
		if p.Explored {
			explored++
		} else {
			exploited++
			// Greedy choice must be the first-wins argmax of the captured row.
			best, bestQ := -1, 0.0
			for j, q := range p.Q {
				if mask != nil && !mask[j] {
					continue
				}
				if best < 0 || q > bestQ {
					best, bestQ = j, q
				}
			}
			if a2 != best {
				t.Fatalf("step %d: exploit chose %d, argmax of captured row is %d (%v)", step, a2, best, p.Q)
			}
		}
		reward := math.Sin(float64(step)) // arbitrary, identical on both
		if err := plain.UpdateIdx(i1, a1, reward, i1, nil); err != nil {
			t.Fatal(err)
		}
		if err := traced.UpdateIdx(i2, a2, reward, i2, nil); err != nil {
			t.Fatal(err)
		}
	}
	if explored == 0 || exploited == 0 {
		t.Fatalf("want both branches exercised: explored=%d exploited=%d", explored, exploited)
	}

	if _, err := traced.SelectIdx(0, []bool{false, false, false, false}, &p); err == nil {
		t.Fatal("fully masked selection should fail")
	}
}
