package obs

import (
	"math"
	"testing"
)

func TestPhaseTotalsDropsZeroPhases(t *testing.T) {
	var p PhaseTotals
	// An empty accumulator reports nil so trace records omit the field.
	if durs := p.Durations(); durs != nil {
		t.Fatalf("empty totals reported %v", durs)
	}
	p.Add(PhaseExecuteIdx, 0.25)
	p.Add(PhaseDecideIdx, 0.15)
	p.Add(PhaseDecideIdx, 0.15)
	p.Add(PhaseQueueIdx, 0) // a zero-width leg must not leak into the map
	want := map[string]float64{PhaseExecute: 0.25, PhaseDecide: 0.30}
	durs := p.Durations()
	if len(durs) != len(want) {
		t.Fatalf("durations = %v, want %v", durs, want)
	}
	for ph, d := range want {
		if math.Abs(durs[ph]-d) > 1e-12 {
			t.Fatalf("phase %s = %v, want %v", ph, durs[ph], d)
		}
	}
}

func TestPhasesCanonicalOrder(t *testing.T) {
	got := Phases()
	want := []string{PhaseQueue, PhaseDecide, PhaseExecute}
	if len(got) != len(want) {
		t.Fatalf("Phases() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Phases()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// Each call returns its own slice: a caller's edit cannot reorder the
	// pipeline for everyone else.
	got[0] = "mutated"
	if Phases()[0] != PhaseQueue {
		t.Fatal("Phases() shares its backing array with callers")
	}
}

func TestEntropy(t *testing.T) {
	if e := Entropy(nil); e != 0 {
		t.Fatalf("Entropy(nil) = %v", e)
	}
	if e := Entropy([]int{5}); e != 0 {
		t.Fatalf("single state entropy = %v", e)
	}
	if e := Entropy([]int{3, 3, 3, 0, -1}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("uniform entropy = %v, want 1", e)
	}
	skew := Entropy([]int{1000, 1, 1})
	if skew <= 0 || skew >= 0.5 {
		t.Fatalf("skewed entropy = %v, want small positive", skew)
	}
	if m := MaxCount([]int{2, 9, 4}); m != 9 {
		t.Fatalf("MaxCount = %d", m)
	}
	if m := MaxCount(nil); m != 0 {
		t.Fatalf("MaxCount(nil) = %d", m)
	}
}
