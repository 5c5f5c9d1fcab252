package policy

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"autoscale/internal/rl"
)

func mergeCk(t testing.TB, device, hash string, actions int,
	q map[rl.State][]float64, visits map[rl.State]int) *Checkpoint {
	t.Helper()
	ck, err := NewCheckpoint(device, hash, testSnapshot(t, actions, q, visits))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestMergeWeightsByVisits(t *testing.T) {
	const hash = "cafebabe00000000"
	a := mergeCk(t, "edge-a", hash, 2,
		map[rl.State][]float64{
			"shared": {1.0, 10.0},
			"only-a": {7.0, 8.0},
		},
		map[rl.State]int{"shared": 3, "only-a": 4})
	b := mergeCk(t, "edge-b", hash, 2,
		map[rl.State][]float64{"shared": {5.0, 20.0}},
		map[rl.State]int{"shared": 1})

	merged, err := Merge([]*Checkpoint{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Device != FleetDevice(hash) || merged.ConfigHash != hash {
		t.Fatalf("merged identity: %+v", merged.Meta)
	}
	if !reflect.DeepEqual(merged.Sources, []string{"edge-a", "edge-b"}) {
		t.Fatalf("sources: %v", merged.Sources)
	}
	tbl, err := merged.Table()
	if err != nil {
		t.Fatal(err)
	}
	// shared: (3*1 + 1*5)/4 = 2, (3*10 + 1*20)/4 = 12.5; visits sum to 4.
	if q := tbl.Q["shared"][0]; math.Abs(q-2.0) > 1e-12 {
		t.Errorf("merged Q(shared,0) = %v, want 2", q)
	}
	if q := tbl.Q["shared"][1]; math.Abs(q-12.5) > 1e-12 {
		t.Errorf("merged Q(shared,1) = %v, want 12.5", q)
	}
	if v := tbl.Visits["shared"]; v != 4 {
		t.Errorf("merged visits(shared) = %d, want 4", v)
	}
	// only-a passes through unchanged.
	if q := tbl.Q["only-a"][1]; q != 8.0 {
		t.Errorf("pass-through Q(only-a,1) = %v, want 8", q)
	}
	if v := tbl.Visits["only-a"]; v != 4 {
		t.Errorf("pass-through visits(only-a) = %d, want 4", v)
	}
}

// TestMergeZeroVisitRowsWeighAsOne: a row with no recorded visits (legacy
// snapshot) still participates with weight one instead of dividing by zero.
func TestMergeZeroVisitRowsWeighAsOne(t *testing.T) {
	const hash = "cafebabe00000000"
	a := mergeCk(t, "a", hash, 1,
		map[rl.State][]float64{"s": {2.0}}, map[rl.State]int{"s": 0})
	b := mergeCk(t, "b", hash, 1,
		map[rl.State][]float64{"s": {4.0}}, map[rl.State]int{"s": 0})
	merged, err := Merge([]*Checkpoint{a, b})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := merged.Table()
	if err != nil {
		t.Fatal(err)
	}
	if q := tbl.Q["s"][0]; math.Abs(q-3.0) > 1e-12 {
		t.Fatalf("equal-weight merge Q = %v, want 3", q)
	}
}

func TestMergeRefusesIncompatible(t *testing.T) {
	base := mergeCk(t, "a", "cafebabe00000000", 2,
		map[rl.State][]float64{"s": {1, 2}}, nil)
	otherHash := mergeCk(t, "b", "deadbeef00000000", 2,
		map[rl.State][]float64{"s": {1, 2}}, nil)
	if _, err := Merge([]*Checkpoint{base, otherHash}); err == nil {
		t.Fatal("merge accepted mismatched config hashes")
	}
	otherActions := mergeCk(t, "c", "cafebabe00000000", 3,
		map[rl.State][]float64{"s": {1, 2, 3}}, nil)
	if _, err := Merge([]*Checkpoint{base, otherActions}); err == nil {
		t.Fatal("merge accepted mismatched action spaces")
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("merge accepted an empty group")
	}
}

// TestMergeIterated: merging a merged policy with a new device stays
// visit-weighted, because merged visit counts are sums.
func TestMergeIterated(t *testing.T) {
	const hash = "cafebabe00000000"
	a := mergeCk(t, "a", hash, 1,
		map[rl.State][]float64{"s": {0.0}}, map[rl.State]int{"s": 1})
	b := mergeCk(t, "b", hash, 1,
		map[rl.State][]float64{"s": {0.0}}, map[rl.State]int{"s": 1})
	ab, err := Merge([]*Checkpoint{a, b})
	if err != nil {
		t.Fatal(err)
	}
	c := mergeCk(t, "c", hash, 1,
		map[rl.State][]float64{"s": {6.0}}, map[rl.State]int{"s": 2})
	all, err := Merge([]*Checkpoint{ab, c})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := all.Table()
	if err != nil {
		t.Fatal(err)
	}
	// (2*0 + 2*6)/4 = 3 — identical to merging a, b, c in one shot.
	if q := tbl.Q["s"][0]; math.Abs(q-3.0) > 1e-12 {
		t.Fatalf("iterated merge Q = %v, want 3", q)
	}
	if v := tbl.Visits["s"]; v != 4 {
		t.Fatalf("iterated merge visits = %d, want 4", v)
	}
}

// TestMergeVisitOverflow: visit sums an int cannot hold fail with
// rl.ErrVisitOverflow instead of wrapping. Two tables at 0.7·MaxInt visits
// for one state wrap the sum negative, three wrap it back to a plausible
// positive count, and two at 0.7·MaxInt on different states overflow only
// the merged total.
func TestMergeVisitOverflow(t *testing.T) {
	const hash = "cafebabe00000000"
	big := int(0.7 * float64(math.MaxInt))
	ck := func(device string, s rl.State) *Checkpoint {
		return mergeCk(t, device, hash, 1,
			map[rl.State][]float64{s: {1.0}}, map[rl.State]int{s: big})
	}
	for _, tc := range []struct {
		name string
		cks  []*Checkpoint
	}{
		{"two tables, one state", []*Checkpoint{ck("a", "s"), ck("b", "s")}},
		{"three tables, one state", []*Checkpoint{ck("a", "s"), ck("b", "s"), ck("c", "s")}},
		{"two tables, two states", []*Checkpoint{ck("a", "s"), ck("b", "t")}},
	} {
		merged, err := Merge(tc.cks)
		if !errors.Is(err, rl.ErrVisitOverflow) {
			var visits map[string]int
			if merged != nil {
				visits = merged.Visits
			}
			t.Errorf("%s: err = %v (visits %v), want rl.ErrVisitOverflow", tc.name, err, visits)
		}
	}
}
