package core

import (
	"math"
	"math/rand"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/rl"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// stateDistance is the literal neighbour distance the grouped search in
// neighbor.go must reproduce: the L1 bin distance over the enabled features,
// NN features weighted by nnWeight.
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

// referenceNearest is the O(rows) reference scan: every materialized row of
// ag weighed by stateDistance, ties to the lower index.
func referenceNearest(ss *StateSpace, ag *rl.Agent, i int32) (best int32, ok bool) {
	var target, cand [NumFeatures]int
	ss.BinsOf(i, &target)
	bestDist := -1
	for _, j := range ag.Rows() {
		ss.BinsOf(j, &cand)
		d := stateDistance(target, cand)
		if bestDist < 0 || d < bestDist || (d == bestDist && j < best) {
			best, bestDist = j, d
		}
	}
	return best, bestDist >= 0
}

// seedReferee drives engines step by step and, at every cold state, seeds
// the row through the engine's grouped search and checks the source and the
// copied row against the reference scan.
type seedReferee struct {
	t     *testing.T
	rng   *rand.Rand
	cond  func() sim.Conditions
	step  int // steps driven so far, across engines
	cold  int // cold states checked
	cross int // cold states seeded from another NN group
}

func (r *seedReferee) drive(e *Engine, models []*dnn.Model, steps int) {
	r.t.Helper()
	for k := 0; k < steps; k++ {
		r.step++
		m := models[r.rng.Intn(len(models))]
		c := r.cond()
		r.check(e, e.States.Index(ObservationOf(m, c)))
		if _, err := e.Step(nil, m, c, nil, nil); err != nil {
			r.t.Fatalf("step %d: %v", r.step, err)
		}
	}
}

func (r *seedReferee) check(e *Engine, i int32) {
	r.t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	ag := e.agent.Load()
	if ag.HasStateIdx(i) {
		return
	}
	want, wantOK := referenceNearest(e.States, ag, i)
	var wantRow []uint64
	if wantOK {
		for j := 0; j < ag.NumActions(); j++ {
			q, _ := ag.QIdx(want, j)
			wantRow = append(wantRow, math.Float64bits(q))
		}
		var tb, wb [NumFeatures]int
		e.States.BinsOf(i, &tb)
		e.States.BinsOf(want, &wb)
		if stateDistance(tb, wb) >= nnWeight {
			r.cross++
		}
	}
	got, gotOK := e.seedIfUnseenIdx(ag, i)
	r.cold++
	if got != want || gotOK != wantOK {
		r.t.Fatalf("step %d: cold state %s seeded from %s (%v), reference scan picks %s (%v)",
			r.step, e.States.KeyOf(i), e.States.KeyOf(got), gotOK, e.States.KeyOf(want), wantOK)
	}
	for j, bits := range wantRow {
		if q, _ := ag.QIdx(i, j); math.Float64bits(q) != bits {
			r.t.Fatalf("step %d: seeded Q(%s, %d) = %v, source row holds %v",
				r.step, e.States.KeyOf(i), j, q, math.Float64frombits(bits))
		}
	}
}

func newRefereeEngine(t *testing.T, dev *soc.Device, seed int64, states *StateSpace) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.RL.Seed = seed
	cfg.States = states
	e, err := NewEngine(sim.NewWorld(dev, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomConditions draws co-runner loads (idle a quarter of the time) and
// signal strengths on both sides of the -80 dBm cut, so episodes reach
// every Table I variance bin.
func randomConditions(rng *rand.Rand) func() sim.Conditions {
	util := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Float64()
	}
	return func() sim.Conditions {
		return sim.Conditions{
			Load:     interfere.Load{CPUUtil: util(), MemUtil: util()},
			RSSIWLAN: -95 + 45*rng.Float64(),
			RSSIP2P:  -95 + 45*rng.Float64(),
		}
	}
}

func newReferee(t *testing.T, seed int64) *seedReferee {
	rng := rand.New(rand.NewSource(seed))
	return &seedReferee{t: t, rng: rng, cond: randomConditions(rng)}
}

// TestSeedMatchesReferenceScan: cold-state seeding through the grouped
// neighbour index picks the same source as the literal O(rows) scan, and
// copies its row bit for bit, at every cold state of seeded episodes. The
// engines' rows arrive through training, transfer (ImportMapped), restore
// (rows in map order), Reset and Fork, on the Table I space and two
// ablated spaces. On Table I some cold states must be seeded from another
// NN group, so the search past the own group is exercised.
func TestSeedMatchesReferenceScan(t *testing.T) {
	zoo := dnn.Zoo()
	t.Run("tableI", func(t *testing.T) {
		r := newReferee(t, 1)
		donor := newRefereeEngine(t, soc.Mi8Pro(), 1, nil)
		r.drive(donor, zoo[:6], 600)

		// Transfer into an engine whose index is already built.
		moto := newRefereeEngine(t, soc.MotoXForce(), 2, nil)
		r.drive(moto, zoo[6:], 150)
		if err := moto.TransferFrom(donor); err != nil {
			t.Fatal(err)
		}
		r.drive(moto, zoo, 400)

		// Restore replaces the table with rows in map order.
		snap, err := donor.SnapshotQTable()
		if err != nil {
			t.Fatal(err)
		}
		restored := newRefereeEngine(t, soc.Mi8Pro(), 3, nil)
		r.drive(restored, zoo[3:], 100)
		if err := restored.RestoreQTable(snap); err != nil {
			t.Fatal(err)
		}
		r.drive(restored, zoo, 400)

		// A fork indexes its cloned rows from scratch; its parent keeps going.
		fork, err := restored.Fork(restored.World)
		if err != nil {
			t.Fatal(err)
		}
		r.drive(fork, zoo, 300)
		r.drive(restored, zoo, 300)

		// Reset empties the table: the first cold state has no donor.
		if err := donor.Reset(); err != nil {
			t.Fatal(err)
		}
		r.drive(donor, zoo, 400)
		if r.cross == 0 {
			t.Fatal("no cold state was seeded from another NN group; the cross-group search went untested")
		}
		t.Logf("%d steps, %d cold states, %d seeded across NN groups", r.step, r.cold, r.cross)
	})
	for _, f := range []Feature{FeatMAC, FeatCoCPU} {
		t.Run("without_"+f.String(), func(t *testing.T) {
			r := newReferee(t, int64(f))
			e := newRefereeEngine(t, soc.GalaxyS10e(), 4, NewStateSpace().Disable(f))
			r.drive(e, zoo, 1200)
			t.Logf("%d steps, %d cold states", r.step, r.cold)
		})
	}
}
