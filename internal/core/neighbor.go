package core

import "autoscale/internal/rl"

// State-lattice generalization. Tabular Q-learning has no notion of state
// similarity, yet the paper's leave-one-out evaluation tests each network
// with a table trained on the *other* networks — whose layer-count and MAC
// bins need not coincide — and reports that "an RL model trained in a device
// has this energy trend knowledge implicitly" (Section IV). We realize that
// implicit generalization explicitly: when the engine first observes a state
// with no Q row, it seeds the row from the nearest trained state on the
// feature lattice (exact match required on the runtime-variance features
// when possible, smallest bin distance on the NN features). Online learning
// then refines the seeded row. DESIGN.md documents this substitution.

// nnWeight makes mismatches on NN features much more expensive than
// runtime-variance mismatches: a state of the *same network* under different
// variance is a far better donor than a different network under the same
// variance, because the action ranking is dominated by the network's
// compute/memory profile and the engine re-adapts to variance online within
// a few runs.
const nnWeight = 100

func stateDistance(a, b [NumFeatures]int) int {
	d := 0
	for f := 0; f < NumFeatures; f++ {
		if a[f] < 0 || b[f] < 0 {
			continue // ablated feature
		}
		diff := a[f] - b[f]
		if diff < 0 {
			diff = -diff
		}
		if Feature(f) < FeatCoCPU {
			diff *= nnWeight
		}
		d += diff
	}
	return d
}

// seedIfUnseenIdx seeds the Q row of the state at dense index i from the
// nearest visited state. It is a no-op when the state already has a row or
// no other state exists. The scan walks only the materialized rows, in the
// agent's row order, and breaks distance ties by the lower index — the state
// the map-backed table's sorted-key walk found first. The agent's table is
// the engine's own grid, so every index decodes.
func (e *Engine) seedIfUnseenIdx(ag *rl.Agent, i int32) {
	if ag.HasStateIdx(i) {
		return
	}
	var target [NumFeatures]int
	if !e.States.BinsOf(i, &target) {
		return
	}
	bestDist := int64(-1)
	var best int32
	ag.ForEachRow(func(j int32) {
		var cb [NumFeatures]int
		e.States.BinsOf(j, &cb)
		d := int64(stateDistance(target, cb))
		if bestDist < 0 || d < bestDist || (d == bestDist && j < best) {
			bestDist, best = d, j
		}
	})
	if bestDist >= 0 {
		// Both indices are on the grid, so the copy cannot fail.
		_ = ag.CopyRowIdx(i, best)
	}
}
