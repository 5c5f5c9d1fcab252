package rl

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// The tests address the shared 24-state grid by index; s, u and v are three
// arbitrary distinct states.
const s, u, v int32 = 0, 1, 2

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LearningRate: 0, Discount: 0.1, Epsilon: 0.1},
		{LearningRate: 1.5, Discount: 0.1, Epsilon: 0.1},
		{LearningRate: 0.9, Discount: 1, Epsilon: 0.1},
		{LearningRate: 0.9, Discount: -0.1, Epsilon: 0.1},
		{LearningRate: 0.9, Discount: 0.1, Epsilon: 2},
		{LearningRate: 0.9, Discount: 0.1, Epsilon: 0.1, InitLo: 1, InitHi: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	if _, err := NewAgent(DefaultConfig(), 0, grid); err == nil {
		t.Error("zero actions should fail")
	}
	if _, err := NewAgent(DefaultConfig(), 2, nil); err == nil {
		t.Error("an agent without a state grid should fail")
	}
}

func TestDefaultHyperparameters(t *testing.T) {
	cfg := DefaultConfig()
	// Section V-C: gamma = 0.9, mu = 0.1, epsilon = 0.1.
	if cfg.LearningRate != 0.9 || cfg.Discount != 0.1 || cfg.Epsilon != 0.1 {
		t.Errorf("defaults drifted from the paper: %+v", cfg)
	}
}

func TestUpdateRule(t *testing.T) {
	ag := newTestAgent(t, zeroInit(0.5, 0.2), 2)
	// All Q start at 0. Update (s,0) with reward 10, next state u.
	if err := ag.UpdateIdx(s, 0, 10, u, nil); err != nil {
		t.Fatal(err)
	}
	// Q(s,0) = 0 + 0.5*(10 + 0.2*0 - 0) = 5.
	if got := q(t, ag, s, 0); math.Abs(got-5) > 1e-12 {
		t.Errorf("Q = %v, want 5", got)
	}
	// Seed next-state value and update again.
	if err := ag.UpdateIdx(u, 1, 20, v, nil); err != nil {
		t.Fatal(err)
	}
	// Q(u,1) = 10. Now Q(s,0) += 0.5*(10 + 0.2*10 - 5) = 5 + 3.5 = 8.5.
	if err := ag.UpdateIdx(s, 0, 10, u, nil); err != nil {
		t.Fatal(err)
	}
	if got := q(t, ag, s, 0); math.Abs(got-8.5) > 1e-12 {
		t.Errorf("Q = %v, want 8.5", got)
	}
}

func TestUpdateRespectsNextMask(t *testing.T) {
	ag := newTestAgent(t, zeroInit(1, 0.5), 2)
	const n, end, s2 = 3, 4, 5
	ag.UpdateIdx(n, 0, 100, end, nil) // Q(n,0)=100
	// With action 0 masked in the next state, the bootstrap must use the
	// remaining action (Q=0), not the 100.
	ag.UpdateIdx(s, 1, 0, n, []bool{false, true})
	if got := q(t, ag, s, 1); got != 0 {
		t.Errorf("masked bootstrap Q = %v, want 0", got)
	}
	ag.UpdateIdx(s2, 1, 0, n, nil)
	if got := q(t, ag, s2, 1); got != 50 {
		t.Errorf("unmasked bootstrap Q = %v, want 50", got)
	}
}

func TestUpdateErrors(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 3)
	if err := ag.UpdateIdx(s, 5, 0, u, nil); err == nil {
		t.Error("out-of-range action should fail")
	}
}

// TestIndexBounds: every index method bounds-checks against the fixed table
// instead of growing it.
func TestIndexBounds(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 3)
	for _, bad := range []int32{-1, int32(grid.Size())} {
		if _, err := ag.SelectActionIdx(bad, nil); err == nil {
			t.Errorf("SelectActionIdx(%d) should fail", bad)
		}
		if _, err := ag.BestActionIdx(bad, nil); err == nil {
			t.Errorf("BestActionIdx(%d) should fail", bad)
		}
		if ag.UpdateIdx(bad, 0, 0, s, nil) == nil || ag.UpdateIdx(s, 0, 0, bad, nil) == nil {
			t.Errorf("UpdateIdx with index %d should fail", bad)
		}
		if ag.CopyRowIdx(bad, s) == nil || ag.CopyRowIdx(s, bad) == nil {
			t.Errorf("CopyRowIdx with index %d should fail", bad)
		}
		if _, ok := ag.QIdx(bad, 0); ok || ag.HasStateIdx(bad) || ag.VisitsIdx(bad) != 0 {
			t.Errorf("reads of index %d must report nothing", bad)
		}
	}
	if ag.NumStates() != 0 || ag.TotalVisits() != 0 {
		t.Error("refused calls must leave the table untouched")
	}
}

func TestGreedySelection(t *testing.T) {
	ag := newTestAgent(t, zeroInit(0.9, 0.1), 3)
	ag.UpdateIdx(s, 2, 100, s, nil)
	for i := 0; i < 20; i++ {
		a, err := ag.SelectActionIdx(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != 2 {
			t.Fatalf("greedy agent chose %d, want 2", a)
		}
	}
	if b, _ := ag.BestActionIdx(s, nil); b != 2 {
		t.Error("BestActionIdx disagrees")
	}
}

func TestMaskedSelection(t *testing.T) {
	ag := newTestAgent(t, zeroInit(0.9, 0.1), 3)
	ag.UpdateIdx(s, 2, 100, s, nil)
	a, err := ag.SelectActionIdx(s, []bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if a == 2 {
		t.Error("masked action selected")
	}
	if _, err := ag.SelectActionIdx(s, []bool{false, false, false}); err == nil {
		t.Error("fully masked selection should fail")
	}
	if _, err := ag.BestActionIdx(u, []bool{false, false, false}); err == nil || ag.HasStateIdx(u) {
		t.Error("fully masked greedy read should fail without materializing the row")
	}
}

func TestEpsilonExplores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon = 1 // always explore
	cfg.InitLo, cfg.InitHi = 0, 0
	ag := newTestAgent(t, cfg, 4)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		a, err := ag.SelectActionIdx(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Errorf("pure exploration visited %d of 4 actions", len(seen))
	}
}

func TestSetEpsilon(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	if err := ag.SetEpsilon(0); err != nil {
		t.Fatal(err)
	}
	if err := ag.SetEpsilon(1.5); err == nil {
		t.Error("epsilon > 1 should fail")
	}
}

func TestFreeze(t *testing.T) {
	cfg := zeroInit(0.9, 0.1)
	cfg.Epsilon = 1
	ag := newTestAgent(t, cfg, 2)
	ag.UpdateIdx(s, 1, 50, s, nil)
	ag.Freeze()
	if !ag.Frozen() {
		t.Error("agent should report frozen")
	}
	// Frozen agents act greedily despite epsilon=1 and ignore updates.
	for i := 0; i < 20; i++ {
		if a, _ := ag.SelectActionIdx(s, nil); a != 1 {
			t.Fatal("frozen agent must be greedy")
		}
	}
	before := q(t, ag, s, 1)
	ag.UpdateIdx(s, 1, -1000, s, nil)
	if q(t, ag, s, 1) != before {
		t.Error("frozen agent must not learn")
	}
}

func TestRandomInitRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitLo, cfg.InitHi = -2, 3
	ag := newTestAgent(t, cfg, 50)
	if _, ok := ag.QIdx(s, 0); ok {
		t.Fatal("QIdx must not materialize a row")
	}
	if _, err := ag.BestActionIdx(s, nil); err != nil { // materializes
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := q(t, ag, s, i); got < -2 || got > 3 {
			t.Fatalf("init Q %v outside [-2,3]", got)
		}
	}
}

func TestStatesAndVisits(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	if ag.NumStates() != 0 {
		t.Error("fresh agent must have no states")
	}
	ag.SelectActionIdx(u, nil)
	ag.SelectActionIdx(s, nil)
	ag.SelectActionIdx(s, nil)
	var states []int32
	ag.ForEachMaterialized(func(i int32) { states = append(states, i) })
	if len(states) != 2 || states[0] != s || states[1] != u || ag.NumStates() != 2 {
		t.Errorf("materialized states = %v", states)
	}
	if ag.VisitsIdx(s) != 2 || ag.VisitsIdx(u) != 1 || ag.VisitsIdx(v) != 0 || ag.TotalVisits() != 3 {
		t.Error("visit counts wrong")
	}
}

// TestRowWalkOrders: Rows lists rows in materialization order, a later view
// extends an earlier one, and appending to a view never writes the agent's
// list; ForEachMaterialized yields the same states by index.
func TestRowWalkOrders(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	var want []int32
	var early []int32
	for i := int32(grid.Size() - 1); i >= 0; i -= 2 {
		ag.CopyRowIdx(i, i)
		want = append(want, i)
		if len(want) == 3 {
			early = ag.Rows()
		}
	}
	rows := ag.Rows()
	if !slices.Equal(rows, want) {
		t.Errorf("Rows = %v, want materialization order %v", rows, want)
	}
	if !slices.Equal(early, want[:3]) || !slices.Equal(rows[:len(early)], early) {
		t.Errorf("early view %v is not a prefix of %v", early, rows)
	}
	_ = append(early, -1)
	if !slices.Equal(ag.Rows(), want) {
		t.Errorf("appending to a view wrote the agent's list: %v", ag.Rows())
	}
	var ascending []int32
	ag.ForEachMaterialized(func(i int32) { ascending = append(ascending, i) })
	slices.Reverse(want)
	if !slices.Equal(ascending, want) {
		t.Errorf("ForEachMaterialized = %v, want ascending %v", ascending, want)
	}
}

func TestHasStateCopyRow(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 3)
	const x, y = 7, 8
	if ag.HasStateIdx(x) {
		t.Error("fresh state must not exist")
	}
	ag.UpdateIdx(x, 0, 42, x, nil)
	if !ag.HasStateIdx(x) {
		t.Error("updated state must exist")
	}
	if err := ag.CopyRowIdx(y, x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if q(t, ag, y, i) != q(t, ag, x, i) {
			t.Fatal("copied row differs")
		}
	}
	// Copies are independent.
	ag.UpdateIdx(y, 1, 7, y, nil)
	if q(t, ag, x, 1) == q(t, ag, y, 1) {
		t.Error("rows aliased after copy")
	}
	// Copying a state onto itself materializes it.
	if err := ag.CopyRowIdx(v, v); err != nil || !ag.HasStateIdx(v) {
		t.Error("self-copy must materialize the row")
	}
}

func TestSnapshotRestore(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 4)
	ag.UpdateIdx(s, 0, 5, u, nil)
	ag.UpdateIdx(u, 3, -2, s, nil)
	ag.SelectActionIdx(s, nil)
	data, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data, grid)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumActions() != 4 || got.NumStates() != ag.NumStates() {
		t.Error("restored shape wrong")
	}
	ag.ForEachMaterialized(func(i int32) {
		for a := 0; a < 4; a++ {
			if q(t, got, i, a) != q(t, ag, i, a) {
				t.Fatalf("restored Q(%d,%d) differs", i, a)
			}
		}
	})
	if got.VisitsIdx(s) != ag.VisitsIdx(s) {
		t.Error("restored visits differ")
	}
	if _, err := Restore([]byte("not json"), grid); err == nil {
		t.Error("garbage restore should fail")
	}
}

func TestTransferFrom(t *testing.T) {
	donor := newTestAgent(t, DefaultConfig(), 3)
	donor.UpdateIdx(s, 1, 99, s, nil)
	dst := newTestAgent(t, DefaultConfig(), 3)
	if err := dst.TransferFrom(donor); err != nil {
		t.Fatal(err)
	}
	if q(t, dst, s, 1) != q(t, donor, s, 1) {
		t.Error("transfer did not copy Q values")
	}
	other := newTestAgent(t, DefaultConfig(), 5)
	if err := other.TransferFrom(donor); err == nil {
		t.Error("mismatched action spaces should fail")
	}
	if err := dst.TransferFrom(nil); err == nil {
		t.Error("nil donor should fail")
	}
}

func TestImportMapped(t *testing.T) {
	donor := newTestAgent(t, DefaultConfig(), 3)
	donor.UpdateIdx(s, 0, 10, s, nil)
	donor.UpdateIdx(s, 2, 30, s, nil)
	cfg := DefaultConfig()
	cfg.InitLo, cfg.InitHi = 0, 0
	dst := newTestAgent(t, cfg, 2)
	// dst action 0 <- donor action 2; dst action 1 keeps local init.
	if err := dst.ImportMapped(donor, []int{2, -1}); err != nil {
		t.Fatal(err)
	}
	if q(t, dst, s, 0) != q(t, donor, s, 2) {
		t.Error("mapped import wrong")
	}
	if q(t, dst, s, 1) != 0 {
		t.Error("unmapped action must keep local init")
	}
	if err := dst.ImportMapped(donor, []int{0}); err == nil {
		t.Error("wrong mapping length should fail")
	}
	if err := dst.ImportMapped(donor, []int{0, 7}); err == nil {
		t.Error("out-of-range donor index should fail")
	}
}

// TestImportTranslatesThroughBothGrids: donor and recipient may sit on
// different grids; rows travel by key, and a donor state the recipient cannot
// render fails the import before anything is written.
func TestImportTranslatesThroughBothGrids(t *testing.T) {
	small := newTestGrid(4)
	dst, err := NewAgent(zeroInit(0.9, 0.1), 2, small)
	if err != nil {
		t.Fatal(err)
	}
	donor := newTestAgent(t, DefaultConfig(), 2)
	donor.UpdateIdx(3, 1, 9, 3, nil)
	if err := dst.TransferFrom(donor); err != nil {
		t.Fatal(err)
	}
	if q(t, dst, 3, 1) != q(t, donor, 3, 1) {
		t.Error("row did not travel by key")
	}
	donor.UpdateIdx(10, 0, 1, 10, nil) // "s10" does not exist on the small grid
	before, _ := dst.Snapshot()
	if err := dst.TransferFrom(donor); err == nil {
		t.Fatal("a donor state outside the recipient's grid should fail the import")
	}
	if after, _ := dst.Snapshot(); string(after) != string(before) {
		t.Error("a refused import must not write")
	}
}

// TestMemoryBytes: a fresh agent holds only its per-state pointer, order and
// visit arrays, and every row it materializes adds the same amount: at least
// its cells.
func TestMemoryBytes(t *testing.T) {
	const states, actions = 200, 66
	ag, err := NewAgent(DefaultConfig(), actions, newTestGrid(states))
	if err != nil {
		t.Fatal(err)
	}
	fixed := ag.MemoryBytes()
	if want := states * (8 + 4 + 8); fixed != want {
		t.Errorf("fresh agent holds %d B, want %d (row pointers, order, visits)", fixed, want)
	}
	ag.CopyRowIdx(0, 0)
	row := ag.MemoryBytes() - fixed
	if row < actions*8 {
		t.Fatalf("one row = %d B, less than its %d cells", row, actions)
	}
	for i := int32(1); i < 100; i++ {
		ag.CopyRowIdx(i, i)
	}
	if got := ag.MemoryBytes(); got != fixed+100*row {
		t.Errorf("100 rows hold %d B, want %d", got, fixed+100*row)
	}
}

// TestMemoryBytesMatchesHeap: MemoryBytes is what the runtime says the agent
// holds — the live-heap delta of building an agent on the paper's 3,072-state
// grid and materializing 0, 20 (the benchmark's engine_train), 640 (the
// paper's table) and every row, within 10 %.
func TestMemoryBytesMatchesHeap(t *testing.T) {
	g := paperGrid()
	for _, rows := range []int{0, 20, 640, g.Size()} {
		before := liveHeap()
		ag, err := NewAgent(DefaultConfig(), 66, g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			ag.CopyRowIdx(int32(i), int32(i))
		}
		delta := liveHeap() - before
		got := int64(ag.MemoryBytes())
		runtime.KeepAlive(ag)
		if diff := math.Abs(float64(got - delta)); diff > 0.1*float64(delta) {
			t.Errorf("%d rows: MemoryBytes %d B, heap grew %d B", rows, got, delta)
		}
		t.Logf("%4d rows: MemoryBytes %7d B, heap grew %7d B", rows, got, delta)
	}
}

// liveHeap is HeapAlloc after two collections: one does not always free
// what was allocated while a background cycle was marking.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFullTableFootprintNearPaper: "full" is the paper's table, not the
// grid — it reports 0.4 MB for about 640 visited states of the 3,072-state
// grid x 66 actions (Section VI-C).
func TestFullTableFootprintNearPaper(t *testing.T) {
	ag, err := NewAgent(DefaultConfig(), 66, paperGrid())
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 640; i++ {
		if err := ag.CopyRowIdx(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if mb := float64(ag.MemoryBytes()) / 1e6; mb < 0.3 || mb > 0.5 {
		t.Errorf("640-state footprint = %.3f MB, want the paper's 0.4 MB +-25%%", mb)
	}
}

func TestQOutOfRangeAction(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	ag.SelectActionIdx(s, nil)
	for _, a := range []int{-1, 5} {
		if got, ok := ag.QIdx(s, a); ok || got != 0 {
			t.Error("out-of-range Q must be (0, false)")
		}
	}
}

func TestUpdateContractionProperty(t *testing.T) {
	// One Q update moves the value a (1-gamma) fraction of the way toward
	// the TD target.
	f := func(rawQ, rawR int16) bool {
		ag := newTestAgent(t, zeroInit(0.9, 0), 1)
		r := float64(rawR)
		// Seed Q by one update from zero: Q = 0.9 * q0.
		ag.UpdateIdx(s, 0, float64(rawQ), u, nil)
		before := q(t, ag, s, 0)
		ag.UpdateIdx(s, 0, r, u, nil)
		want := before + 0.9*(r-before)
		return math.Abs(q(t, ag, s, 0)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSarsaUpdate(t *testing.T) {
	ag := &SarsaAgent{Agent: newTestAgent(t, zeroInit(0.5, 0.5), 3)}
	const next, end = 3, 4
	// Seed Q(next, 1) = 10 via one plain update.
	ag.UpdateIdx(next, 1, 20, end, nil)
	if got := q(t, ag.Agent, next, 1); got != 10 {
		t.Fatalf("setup Q = %v", got)
	}
	// SARSA bootstraps from the taken action (1, the only one the mask
	// enables), not the max.
	ag.UpdateIdx(next, 2, 100, end, nil) // Q(next,2)=50, the max
	onlyOne := []bool{false, true, false}
	if a, err := ag.StepIdx(&Staged{State: s, Action: 0, Reward: 4}, next, onlyOne, nil); err != nil || a != 1 {
		t.Fatalf("StepIdx = %d, %v; want 1", a, err)
	}
	// Q(s,0) = 0 + 0.5*(4 + 0.5*10 - 0) = 4.5 (not 0.5*(4+25)).
	if got := q(t, ag.Agent, s, 0); got != 4.5 {
		t.Errorf("SARSA Q = %v, want 4.5", got)
	}
	if _, err := ag.StepIdx(&Staged{State: s, Action: 9}, next, nil, nil); err == nil {
		t.Error("out-of-range action should fail")
	}
	if _, err := ag.StepIdx(&Staged{State: -1}, next, nil, nil); err == nil {
		t.Error("out-of-range staged state should fail")
	}
	if _, err := ag.StepIdx(&Staged{State: s}, -1, nil, nil); err == nil {
		t.Error("out-of-range next state should fail")
	}
	// Frozen SARSA agents ignore updates.
	ag.Freeze()
	before := q(t, ag.Agent, s, 0)
	if _, err := ag.StepIdx(&Staged{State: s, Action: 0, Reward: 1000}, next, onlyOne, nil); err != nil {
		t.Fatal(err)
	}
	if q(t, ag.Agent, s, 0) != before {
		t.Error("frozen SARSA agent must not learn")
	}
}

func TestSarsaSharesAgentMachinery(t *testing.T) {
	ag := &SarsaAgent{Agent: newTestAgent(t, DefaultConfig(), 4)}
	// Selection, snapshot and transfer all come from the embedded Agent.
	if _, err := ag.SelectActionIdx(s, nil); err != nil {
		t.Fatal(err)
	}
	data, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data, grid); err != nil {
		t.Fatal(err)
	}
}
