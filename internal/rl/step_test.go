package rl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autoscale/internal/obs"
)

// stepActions matches the Mi8Pro action space the engine runs on.
const stepActions = 66

// stepMasks are the masks the referee draws from: every action, none, the
// 49 of 66 MobileBERT enables on the Mi8Pro (as a fixed random subset),
// three actions, and a short mask that leaves the tail disabled.
func stepMasks() [][]bool {
	all := make([]bool, stepActions)
	for j := range all {
		all[j] = true
	}
	partial := make([]bool, stepActions)
	for _, j := range rand.New(rand.NewSource(49)).Perm(stepActions)[:49] {
		partial[j] = true
	}
	sparse := make([]bool, stepActions)
	sparse[3], sparse[40], sparse[65] = true, true, true
	short := []bool{false, true, true, false, true}
	return [][]bool{nil, all, partial, make([]bool, stepActions), sparse, short}
}

// stepDriver replays the engine's staging around one agent: it holds the
// staged (S, A, R) and consumes it the way Engine.Step does.
type stepDriver struct {
	ag      *Agent
	pending Staged
	staged  bool
	prov    obs.Provenance
}

// stepFused is one engine step through the fused call.
func (d *stepDriver) stepFused(sarsa bool, i int32, mask []bool, p *obs.Provenance) (int, error) {
	var st *Staged
	if d.staged {
		st = &d.pending
	}
	var idx int
	var err error
	if sarsa {
		idx, err = (&SarsaAgent{Agent: d.ag}).StepIdx(st, i, mask, p)
	} else {
		idx, err = d.ag.StepIdx(st, i, mask, p)
	}
	if err == nil || (!sarsa && err == ErrNoEnabled) {
		d.staged = false
	}
	return idx, err
}

// stepTwoCalls is one engine step as two locked calls: UpdateIdx then
// SelectIdx for Q-learning, SelectIdx then the SARSA rule (sarsaRef) for
// SARSA.
func (d *stepDriver) stepTwoCalls(sarsa bool, i int32, mask []bool, p *obs.Provenance) (int, error) {
	if !sarsa && d.staged {
		if err := d.ag.UpdateIdx(d.pending.State, d.pending.Action, d.pending.Reward, i, mask); err != nil {
			return 0, err
		}
		d.staged = false
	}
	idx, err := d.ag.SelectIdx(i, mask, p)
	if err != nil {
		return 0, err
	}
	if sarsa && d.staged {
		sarsaRef(d.ag, d.pending, i, idx)
		d.staged = false
	}
	return idx, nil
}

// sarsaRef is the SARSA rule written out: Q(S,A) moves toward
// R + mu Q(S′,A′), reading S′'s row before S's, and a frozen agent ignores
// it.
func sarsaRef(a *Agent, st Staged, ni int32, next int) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return
	}
	nextQ := loadQ(&a.ensureRowLocked(ni)[next])
	cell := &a.ensureRowLocked(st.State)[st.Action]
	q := loadQ(cell)
	delta := st.Reward + a.cfg.Discount*nextQ - q
	a.noteTDLocked(delta)
	cell.Store(math.Float64bits(q + a.cfg.LearningRate*delta))
}

// stage records a served step's (S, A, R) unless the agent is frozen.
func (d *stepDriver) stage(i int32, idx int, reward float64) {
	if !d.ag.Frozen() {
		d.pending, d.staged = Staged{State: i, Action: idx, Reward: reward}, true
	}
}

// sameProv compares two provenance slots field by field, Q by bits.
func sameProv(a, b *obs.Provenance) bool {
	if a.StateIdx != b.StateIdx || a.Epsilon != b.Epsilon || a.Frozen != b.Frozen ||
		a.Explored != b.Explored || len(a.Q) != len(b.Q) || len(a.Mask) != len(b.Mask) {
		return false
	}
	for j := range a.Q {
		if math.Float64bits(a.Q[j]) != math.Float64bits(b.Q[j]) {
			return false
		}
	}
	for j := range a.Mask {
		if a.Mask[j] != b.Mask[j] {
			return false
		}
	}
	return true
}

// TestStepIdxMatchesUpdateThenSelect is the referee for the fused step:
// twin agents of one config and seed, one driven through StepIdx and one
// through the two locked calls it replaces, must agree after every step on
// the action, the error, the table bytes, the visit count, the TD-error EMA,
// the exploration counters and the provenance — for both update rules, at
// epsilon 0, 0.1 and 1, over repeated states (S′ = S included), partial,
// short and empty masks, with and without a provenance slot, and across a
// freeze mid-sequence.
func TestStepIdxMatchesUpdateThenSelect(t *testing.T) {
	masks := stepMasks()
	for _, sarsa := range []bool{false, true} {
		for _, eps := range []float64{0, 0.1, 1} {
			t.Run(fmt.Sprintf("sarsa=%v/eps=%v", sarsa, eps), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Epsilon, cfg.Seed = eps, 17
				fused := &stepDriver{ag: newTestAgent(t, cfg, stepActions)}
				ref := &stepDriver{ag: newTestAgent(t, cfg, stepActions)}
				rng := rand.New(rand.NewSource(int64(eps*10) + 3))
				const steps, freezeAt = 2000, 1400
				var noEnabled, sameState int
				i := int32(0)
				for k := 0; k < steps; k++ {
					if k == freezeAt {
						fused.ag.Freeze()
						ref.ag.Freeze()
					}
					prev := i
					if rng.Intn(3) > 0 { // a third of the steps stay in S
						i = int32(rng.Intn(grid.Size()))
					}
					if fused.staged && fused.pending.State == i {
						sameState++
					}
					mask := masks[rng.Intn(len(masks))]
					var pf, pr *obs.Provenance
					if k%2 == 0 {
						pf, pr = &fused.prov, &ref.prov
					}
					a1, err1 := fused.stepFused(sarsa, i, mask, pf)
					a2, err2 := ref.stepTwoCalls(sarsa, i, mask, pr)
					if a1 != a2 || err1 != err2 || fused.staged != ref.staged {
						t.Fatalf("step %d (S %d -> S′ %d): fused (%d, %v, staged %v), two calls (%d, %v, staged %v)",
							k, prev, i, a1, err1, fused.staged, a2, err2, ref.staged)
					}
					if err1 == ErrNoEnabled {
						noEnabled++
					} else if err1 != nil {
						t.Fatal(err1)
					}
					stepAgreeOn(t, k, fused, ref, i, k%100 == 0 || k == steps-1)
					if err1 == nil {
						reward := rng.Float64()*6 - 3
						fused.stage(i, a1, reward)
						ref.stage(i, a2, reward)
					}
				}
				if noEnabled == 0 || sameState == 0 {
					t.Fatalf("sequence missed a case: %d empty-mask steps, %d steps with S′ = S", noEnabled, sameState)
				}
			})
		}
	}
}

// stepAgreeOn fails the test unless the twins agree on everything the
// referee compares after step k, which observed S′ = i. Every Q cell is
// compared by bits at every step; encode adds the Table().Encode() bytes,
// which cost a JSON rendering.
func stepAgreeOn(t *testing.T, k int, fused, ref *stepDriver, i int32, encode bool) {
	t.Helper()
	for s := range fused.ag.tab.states {
		rf, rr := fused.ag.tab.row(int32(s)), ref.ag.tab.row(int32(s))
		if (rf == nil) != (rr == nil) {
			t.Fatalf("step %d: state %d has a row in only one twin", k, s)
		}
		for j := range rf {
			if rf[j].Load() != rr[j].Load() {
				t.Fatalf("step %d: Q(%d, %d) differs", k, s, j)
			}
		}
	}
	if encode {
		tf, err := fused.ag.Table().Encode()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ref.ag.Table().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tf, tr) {
			t.Fatalf("step %d: table bytes differ", k)
		}
	}
	if vf, vr := fused.ag.VisitsIdx(i), ref.ag.VisitsIdx(i); vf != vr {
		t.Fatalf("step %d: visits %d vs %d", k, vf, vr)
	}
	ef, nf := fused.ag.TDErrorEMA()
	er, nr := ref.ag.TDErrorEMA()
	if math.Float64bits(ef) != math.Float64bits(er) || nf != nr {
		t.Fatalf("step %d: TD EMA (%v, %d) vs (%v, %d)", k, ef, nf, er, nr)
	}
	xf, sf := fused.ag.ExplorationStats()
	xr, sr := ref.ag.ExplorationStats()
	if xf != xr || sf != sr {
		t.Fatalf("step %d: exploration (%d/%d) vs (%d/%d)", k, xf, sf, xr, sr)
	}
	if !sameProv(&fused.prov, &ref.prov) {
		t.Fatalf("step %d: provenance %+v vs %+v", k, fused.prov, ref.prov)
	}
}
