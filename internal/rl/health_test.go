package rl

import (
	"math"
	"testing"
)

func TestTDErrorEMATracksConvergence(t *testing.T) {
	ag := newTestAgent(t, zeroInit(0.9, 0), 2)
	if ema, n := ag.TDErrorEMA(); ema != 0 || n != 0 {
		t.Fatalf("fresh agent EMA = (%v, %d)", ema, n)
	}
	// First update: Q=0, reward=1 -> |delta|=1 seeds the EMA exactly.
	if err := ag.UpdateIdx(s, 0, 1, s, nil); err != nil {
		t.Fatal(err)
	}
	ema, n := ag.TDErrorEMA()
	if n != 1 || math.Abs(ema-1) > 1e-12 {
		t.Fatalf("after first update EMA = (%v, %d), want (1, 1)", ema, n)
	}
	// Repeated identical updates converge Q toward the reward, so the EMA
	// must decay toward zero.
	for i := 0; i < 200; i++ {
		if err := ag.UpdateIdx(s, 0, 1, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	ema, n = ag.TDErrorEMA()
	if n != 201 {
		t.Fatalf("sample count = %d", n)
	}
	if ema >= 1e-4 {
		t.Fatalf("EMA did not decay under a converged policy: %v", ema)
	}
}

func TestTDErrorEMASkipsFrozenAndSarsaFeedsIt(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	ag.Freeze()
	if err := ag.UpdateIdx(s, 0, 5, s, nil); err != nil {
		t.Fatal(err)
	}
	if _, n := ag.TDErrorEMA(); n != 0 {
		t.Fatalf("frozen update fed the EMA (%d samples)", n)
	}

	sa := &SarsaAgent{Agent: newTestAgent(t, zeroInit(0.5, 0), 2)}
	if _, err := sa.StepIdx(&Staged{State: s, Action: 0, Reward: 2}, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	ema, n := sa.TDErrorEMA()
	if n != 1 || math.Abs(ema-2) > 1e-12 {
		t.Fatalf("SARSA EMA = (%v, %d), want (2, 1)", ema, n)
	}
}

func TestExplorationStats(t *testing.T) {
	ag := newTestAgent(t, Config{LearningRate: 0.9, Discount: 0.1, Epsilon: 0.5, InitLo: -1, InitHi: 1, Seed: 7}, 3)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := ag.SelectActionIdx(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	explores, selections := ag.ExplorationStats()
	if selections != n {
		t.Fatalf("selections = %d, want %d", selections, n)
	}
	ratio := float64(explores) / float64(selections)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("exploration ratio %v far from epsilon 0.5", ratio)
	}
	// Frozen agents stop exploring but keep counting selections.
	ag.Freeze()
	for i := 0; i < 100; i++ {
		if _, err := ag.SelectActionIdx(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	explores2, selections2 := ag.ExplorationStats()
	if selections2 != n+100 || explores2 != explores {
		t.Fatalf("frozen stats = (%d, %d), want (%d, %d)", explores2, selections2, explores, n+100)
	}
}

func TestNumStatesAndEpsilonAccessors(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	if ag.NumStates() != 0 {
		t.Fatalf("fresh agent has %d states", ag.NumStates())
	}
	ag.BestActionIdx(s, nil) // materializes
	ag.BestActionIdx(u, nil)
	if ag.NumStates() != 2 {
		t.Fatalf("NumStates = %d, want 2", ag.NumStates())
	}
	if eps := ag.Epsilon(); eps != DefaultConfig().Epsilon {
		t.Fatalf("Epsilon = %v", eps)
	}
	if err := ag.SetEpsilon(0.25); err != nil {
		t.Fatal(err)
	}
	if eps := ag.Epsilon(); eps != 0.25 {
		t.Fatalf("Epsilon after set = %v", eps)
	}
}

// TestSnapshotExcludesHealthCounters pins the checkpoint compatibility
// contract: learning-health state must not leak into the persisted snapshot.
func TestSnapshotExcludesHealthCounters(t *testing.T) {
	ag := newTestAgent(t, zeroInit(0.9, 0.1), 2)
	if _, err := ag.SelectActionIdx(s, nil); err != nil {
		t.Fatal(err)
	}
	before, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.UpdateIdx(s, 0, 3, s, nil); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(before, grid)
	if err != nil {
		t.Fatal(err)
	}
	if ema, n := restored.TDErrorEMA(); ema != 0 || n != 0 {
		t.Fatalf("restored agent carries TD state (%v, %d)", ema, n)
	}
	if ex, sel := restored.ExplorationStats(); ex != 0 || sel != 0 {
		t.Fatalf("restored agent carries exploration state (%d, %d)", ex, sel)
	}
}
