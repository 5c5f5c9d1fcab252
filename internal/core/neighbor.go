package core

import (
	"cmp"
	"slices"

	"autoscale/internal/rl"
)

// State-lattice generalization. Tabular Q-learning has no notion of state
// similarity, yet the paper's leave-one-out evaluation tests each network
// with a table trained on the *other* networks — whose layer-count and MAC
// bins need not coincide — and reports that "an RL model trained in a device
// has this energy trend knowledge implicitly" (Section IV). We realize that
// implicit generalization explicitly: when the engine first observes a state
// with no Q row, it seeds the row from the nearest trained state on the
// feature lattice. The distance is the L1 bin distance with the NN features
// weighted by nnWeight, so the nearest state is one of the same network if
// any exists, and the runtime-variance features only rank donors within it.
// Ablated features do not count. Online learning then refines the seeded
// row. DESIGN.md documents this substitution.

// nnWeight makes mismatches on NN features much more expensive than
// runtime-variance mismatches: a state of the *same network* under different
// variance is a far better donor than a different network under the same
// variance, because the action ranking is dominated by the network's
// compute/memory profile and the engine re-adapts to variance online within
// a few runs.
const nnWeight = 100

// nnFeatures is how many leading Table I features describe the network
// (SCONV, SFC, SRC, SMAC); the remaining varFeatures describe runtime
// variance. The NN features are the most significant digits of a dense
// index, so index / (size of the variance sub-grid) is a state's NN tuple.
const (
	nnFeatures  = int(FeatCoCPU)
	varFeatures = NumFeatures - nnFeatures
)

// neighborIndex groups an agent's materialized rows by NN tuple for the
// nearest-neighbour search. A state's distance to a row is
// nnWeight·dNN + dVar with 0 ≤ dVar < nnWeight, so a row of the target's
// own group beats every other group; without one, no row of a group whose
// nnWeight·dNN already exceeds the best total found can win or tie, and the
// search visits groups by ascending dNN and stops there. The index belongs
// to the engine's installed agent and is guarded by the engine's mu; it
// catches up from the agent's append-only row list on each search, so rows
// materialized by any path (selection, transfer, a lock-free reader's miss)
// are found.
type neighborIndex struct {
	cache   *internCache // the radix table the groups were cut with; nil = empty index
	read    int          // length of the agent's Rows already indexed
	varSize int32        // states per NN tuple
	slot    []int32      // NN tuple -> 1 + its position in groups; 0 = no rows
	groups  []nnGroup
	visit   []groupDist // search scratch
}

type nnGroup struct {
	nn   [nnFeatures]int32
	rows []nnRow
}

type nnRow struct {
	idx int32
	vb  [varFeatures]int32
}

type groupDist struct {
	d     int // nnWeight·dNN
	group int32
}

// split decodes a dense index into its NN and variance bins. Disabled
// features have radix 1, so they decode as bin 0 on every state and add
// nothing to a distance.
func (x *neighborIndex) split(i int32) (nn [nnFeatures]int32, vb [varFeatures]int32) {
	var bins [NumFeatures]int
	decodeBins(x.cache, i, &bins)
	for f := range nn {
		nn[f] = int32(bins[f])
	}
	for f := range vb {
		vb[f] = int32(bins[nnFeatures+f])
	}
	return nn, vb
}

// catchUp indexes the rows materialized since the last search, first
// starting over if the state space was re-cut (Disable) since the index was
// built.
func (x *neighborIndex) catchUp(ag *rl.Agent, c *internCache) {
	if x.cache != c {
		varSize := int32(1)
		for f := nnFeatures; f < NumFeatures; f++ {
			varSize *= c.radix[f]
		}
		*x = neighborIndex{cache: c, varSize: varSize, slot: make([]int32, int32(c.size)/varSize)}
	}
	rows := ag.Rows()
	for _, j := range rows[x.read:] {
		nn, vb := x.split(j)
		g := j / x.varSize
		if x.slot[g] == 0 {
			x.groups = append(x.groups, nnGroup{nn: nn})
			x.slot[g] = int32(len(x.groups))
		}
		grp := &x.groups[x.slot[g]-1]
		grp.rows = append(grp.rows, nnRow{idx: j, vb: vb})
	}
	x.read = len(rows)
}

// l1 is the bin distance between two equally long bin tuples.
func l1(a, b []int32) int {
	d := int32(0)
	for f, x := range a {
		d += max(x-b[f], b[f]-x)
	}
	return int(d)
}

// nearest returns the indexed row nearest to state i, ties broken by the
// lower index; ok is false when the agent has no rows.
func (x *neighborIndex) nearest(i int32) (best int32, ok bool) {
	tn, tv := x.split(i)
	bestD := -1
	scan := func(g *nnGroup, dNN int) {
		for _, r := range g.rows {
			d := dNN + l1(tv[:], r.vb[:])
			if bestD < 0 || d < bestD || (d == bestD && r.idx < best) {
				best, bestD = r.idx, d
			}
		}
	}
	// The target's own group is at dNN = 0 and every other group at least
	// nnWeight away. A Table I variance distance is at most
	// (4-1)+(4-1)+(2-1)+(2-1) = 8 < nnWeight (TestTableIInvariants), so any
	// row of the own group settles the search.
	if own := x.slot[i/x.varSize] - 1; own >= 0 {
		scan(&x.groups[own], 0)
		return best, true
	}
	x.visit = x.visit[:0]
	for k := range x.groups {
		x.visit = append(x.visit, groupDist{d: nnWeight * l1(tn[:], x.groups[k].nn[:]), group: int32(k)})
	}
	slices.SortFunc(x.visit, func(a, b groupDist) int { return cmp.Compare(a.d, b.d) })
	for _, v := range x.visit {
		if bestD >= 0 && v.d > bestD {
			break
		}
		scan(&x.groups[v.group], v.d)
	}
	return best, bestD >= 0
}

// seedIfUnseenIdx seeds the Q row of the state at dense index i from the
// nearest materialized state of ag, the engine's installed agent, and
// returns that source. It is a no-op when the state already has a row or the
// agent has none. Ties go to the lower index — the state the map-backed
// table's sorted-key walk found first. Caller holds mu.
func (e *Engine) seedIfUnseenIdx(ag *rl.Agent, i int32) (src int32, seeded bool) {
	if ag.HasStateIdx(i) {
		return 0, false
	}
	c := e.States.cacheLoad()
	if i < 0 || int(i) >= c.size {
		return 0, false
	}
	e.nn.catchUp(ag, c)
	src, seeded = e.nn.nearest(i)
	if seeded {
		// Both indices are on the grid, so the copy cannot fail.
		_ = ag.CopyRowIdx(i, src)
	}
	return src, seeded
}
