package rl

import (
	"fmt"
	"testing"
)

// testGrid is the small state grid the rl tests run on: n states keyed
// "s00".."s<n-1>", so ascending index is ascending key order (as on the
// Table I grid).
type testGrid struct {
	keys  []State
	index map[State]int32
}

func newTestGrid(n int) *testGrid {
	keys := make([]State, n)
	for i := range keys {
		keys[i] = State(fmt.Sprintf("s%02d", i))
	}
	return gridOf(keys)
}

func gridOf(keys []State) *testGrid {
	g := &testGrid{keys: keys, index: make(map[State]int32, len(keys))}
	for i, k := range keys {
		g.index[k] = int32(i)
	}
	return g
}

func (g *testGrid) Size() int           { return len(g.keys) }
func (g *testGrid) KeyOf(i int32) State { return g.keys[i] }
func (g *testGrid) Lookup(s State) (int32, bool) {
	i, ok := g.index[s]
	return i, ok
}

// grid is shared by the tests: grids are immutable, agents are not.
var grid = newTestGrid(24)

// paperGrid has Table I's 3,072 states with keys as long as Table I's
// ("0|1|0|2|1|0|1|1" is 15 bytes).
func paperGrid() *testGrid {
	keys := make([]State, 3072)
	for i := range keys {
		keys[i] = State(fmt.Sprintf("%015d", i))
	}
	return gridOf(keys)
}

func newTestAgent(t testing.TB, cfg Config, actions int) *Agent {
	t.Helper()
	ag, err := NewAgent(cfg, actions, grid)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// zeroInit is a deterministic-arithmetic config: rows materialize to exactly
// zero and selection is greedy.
func zeroInit(lr, discount float64) Config {
	return Config{LearningRate: lr, Discount: discount, Epsilon: 0, InitLo: 0, InitHi: 0, Seed: 1}
}

// q reads a materialized cell, failing the test when the row does not exist.
func q(t testing.TB, ag *Agent, i int32, action int) float64 {
	t.Helper()
	v, ok := ag.QIdx(i, action)
	if !ok {
		t.Fatalf("QIdx(%d, %d): no such cell", i, action)
	}
	return v
}
