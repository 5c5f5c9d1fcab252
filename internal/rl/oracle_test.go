package rl

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	mrand "math/rand"
	"sort"
	"testing"

	"autoscale/internal/exec"
)

// refLearner is the differential oracle for the dense agent: Algorithm 1
// written the obvious way — string-keyed maps, rows materialized on first
// touch, no indices, no atomics, no locks. It draws from the same named RNG
// stream in the same order the agent documents (one Float64 per action on
// materialization; per selection one Float64, plus one Intn when exploring),
// so a lock-step run must agree with the agent bit for bit.
type refLearner struct {
	cfg     Config // Epsilon is live
	actions int
	frozen  bool
	q       map[State][]float64
	visits  map[State]int
	rng     *exec.Rand
}

func newRef(cfg Config, actions int) *refLearner {
	return &refLearner{cfg: cfg, actions: actions, q: map[State][]float64{}, visits: map[State]int{},
		rng: exec.NewRoot(cfg.Seed).Stream("rl.agent")}
}

func (r *refLearner) row(s State) []float64 {
	if row, ok := r.q[s]; ok {
		return row
	}
	row := make([]float64, r.actions)
	for j := range row {
		row[j] = r.cfg.InitLo + (r.cfg.InitHi-r.cfg.InitLo)*r.rng.Float64()
	}
	r.q[s] = row
	return row
}

func enabled(mask []bool, n int) (on []int) {
	for j := 0; j < n; j++ {
		if mask == nil || (j < len(mask) && mask[j]) {
			on = append(on, j)
		}
	}
	return on
}

var errRefMasked = errors.New("ref: no enabled action")

// greedy is the first-wins argmax over the enabled actions.
func greedy(row []float64, on []int) int {
	best := on[0]
	for _, j := range on[1:] {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

func (r *refLearner) selectAction(s State, mask []bool) (int, error) {
	on := enabled(mask, r.actions)
	if len(on) == 0 {
		return 0, errRefMasked
	}
	r.visits[s]++
	row := r.row(s)
	if !r.frozen && r.rng.Float64() < r.cfg.Epsilon {
		return on[r.rng.Intn(len(on))], nil
	}
	return greedy(row, on), nil
}

func (r *refLearner) best(s State, mask []bool) (int, error) {
	on := enabled(mask, r.actions)
	if len(on) == 0 {
		return 0, errRefMasked
	}
	return greedy(r.row(s), on), nil
}

func (r *refLearner) update(s State, action int, reward float64, next State, nextMask []bool) {
	if r.frozen {
		return
	}
	nextBest := 0.0
	if on := enabled(nextMask, r.actions); len(on) > 0 {
		nextRow := r.row(next)
		nextBest = nextRow[greedy(nextRow, on)]
	}
	row := r.row(s)
	delta := reward + r.cfg.Discount*nextBest - row[action]
	row[action] += r.cfg.LearningRate * delta
}

func (r *refLearner) copyRow(dst, src State) {
	from := r.row(src)
	if dst != src {
		r.q[dst] = append([]float64(nil), from...)
	}
}

func (r *refLearner) snapshot(t *testing.T) []byte {
	data, err := json.Marshal(Table{Config: r.cfg, Actions: r.actions, Q: r.q, Visits: r.visits})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreRef is what a restore means: the table and hyperparameters survive,
// the RNG stream restarts from the seed, the frozen bit does not travel.
func restoreRef(t *testing.T, data []byte) *refLearner {
	var tbl Table
	if err := json.Unmarshal(data, &tbl); err != nil {
		t.Fatal(err)
	}
	r := newRef(tbl.Config, tbl.Actions)
	r.q, r.visits = tbl.Q, tbl.Visits
	return r
}

// importMapped walks the donor's states in ascending key order — ascending
// index on the test grid — which is the documented transfer order.
func (r *refLearner) importMapped(donor *refLearner, srcForDst []int) {
	keys := make([]string, 0, len(donor.q))
	for s := range donor.q {
		keys = append(keys, string(s))
	}
	sort.Strings(keys)
	for _, k := range keys {
		row := r.row(State(k))
		for j, src := range srcForDst {
			if src >= 0 {
				row[j] = donor.q[State(k)][src]
			}
		}
	}
}

// pair is one agent and its oracle.
type pair struct {
	ag  *Agent
	ref *refLearner
}

func newPair(t *testing.T, cfg Config, actions int) *pair {
	return &pair{ag: newTestAgent(t, cfg, actions), ref: newRef(cfg, actions)}
}

// equal compares everything observable with ==: every Q bit, every visit
// count, and the snapshot bytes.
func (p *pair) equal(t *testing.T, step int, op string) {
	t.Helper()
	if p.ag.NumStates() != len(p.ref.q) {
		t.Fatalf("step %d (%s): %d rows, oracle has %d", step, op, p.ag.NumStates(), len(p.ref.q))
	}
	for i := int32(0); int(i) < grid.Size(); i++ {
		key := grid.KeyOf(i)
		row, ok := p.ref.q[key]
		if p.ag.HasStateIdx(i) != ok {
			t.Fatalf("step %d (%s): state %s materialized=%v, oracle %v", step, op, key, !ok, ok)
		}
		for j := range row {
			if got, _ := p.ag.QIdx(i, j); math.Float64bits(got) != math.Float64bits(row[j]) {
				t.Fatalf("step %d (%s): Q(%s,%d) = %v, oracle %v", step, op, key, j, got, row[j])
			}
		}
		if got := p.ag.VisitsIdx(i); got != p.ref.visits[key] {
			t.Fatalf("step %d (%s): visits(%s) = %d, oracle %d", step, op, key, got, p.ref.visits[key])
		}
	}
	snap, err := p.ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := p.ref.snapshot(t); !bytes.Equal(snap, want) {
		t.Fatalf("step %d (%s): snapshot bytes differ:\n got %s\nwant %s", step, op, snap, want)
	}
}

// TestOracleLockStep drives the dense agent and the map-based reference
// through seeded random sequences of select / update / best / copy-row /
// snapshot→restore / transfer / import-mapped and demands identical chosen
// actions at every step and identical tables (Q bits, visits, snapshot bytes)
// throughout (ROADMAP 10a).
func TestOracleLockStep(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := mrand.New(mrand.NewSource(seed))
		cfg := Config{LearningRate: 0.9, Discount: 0.1, Epsilon: 0.3, InitLo: -1, InitHi: 1, Seed: seed}
		const actions, donorActions = 5, 3
		main := newPair(t, cfg, actions)
		cfg.Seed += 100
		same := newPair(t, cfg, actions) // TransferFrom donor
		cfg.Seed += 100
		narrow := newPair(t, cfg, donorActions) // ImportMapped donor

		state := func() int32 { return int32(ops.Intn(grid.Size())) }
		mask := func(n int) []bool {
			switch ops.Intn(4) {
			case 0:
				return nil
			case 1: // may be short, may disable everything
				m := make([]bool, ops.Intn(n+1))
				for j := range m {
					m[j] = ops.Intn(3) > 0
				}
				return m
			}
			m := make([]bool, n)
			for j := range m {
				m[j] = ops.Intn(4) > 0
			}
			return m
		}
		// step runs one select+update on p, as an engine step would.
		step := func(p *pair, n, i int, op string) {
			s, m := state(), mask(n)
			got, errA := p.ag.SelectActionIdx(s, m)
			want, errR := p.ref.selectAction(grid.KeyOf(s), m)
			if (errA != nil) != (errR != nil) || got != want {
				t.Fatalf("seed %d step %d (%s): chose %d (%v), oracle %d (%v)", seed, i, op, got, errA, want, errR)
			}
			if errA != nil {
				return
			}
			next, nm, reward := state(), mask(n), ops.NormFloat64()
			if err := p.ag.UpdateIdx(s, got, reward, next, nm); err != nil {
				t.Fatal(err)
			}
			p.ref.update(grid.KeyOf(s), got, reward, grid.KeyOf(next), nm)
		}

		for i := 0; i < 1500; i++ {
			op := "select+update"
			switch k := ops.Intn(40); {
			case k < 24:
				step(main, actions, i, op)
			case k < 28:
				op = "best"
				s, m := state(), mask(actions)
				got, errA := main.ag.BestActionIdx(s, m)
				want, errR := main.ref.best(grid.KeyOf(s), m)
				if (errA != nil) != (errR != nil) || got != want {
					t.Fatalf("seed %d step %d: best %d (%v), oracle %d (%v)", seed, i, got, errA, want, errR)
				}
			case k < 31:
				op = "copy-row"
				dst, src := state(), state()
				if err := main.ag.CopyRowIdx(dst, src); err != nil {
					t.Fatal(err)
				}
				main.ref.copyRow(grid.KeyOf(dst), grid.KeyOf(src))
			case k < 33:
				op = "snapshot→restore"
				snap, err := main.ag.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if main.ag, err = Restore(snap, grid); err != nil {
					t.Fatal(err)
				}
				main.ref = restoreRef(t, main.ref.snapshot(t))
			case k < 34:
				op = "epsilon/freeze"
				if eps := float64(ops.Intn(5)) / 4; ops.Intn(6) > 0 {
					main.ag.SetEpsilon(eps)
					main.ref.cfg.Epsilon = eps
				} else {
					main.ag.Freeze()
					main.ref.frozen = true
				}
			case k < 36:
				op = "transfer"
				if err := main.ag.TransferFrom(same.ag); err != nil {
					t.Fatal(err)
				}
				identity := []int{0, 1, 2, 3, 4}
				main.ref.importMapped(same.ref, identity)
			case k < 38:
				op = "import-mapped"
				mapping := make([]int, actions) // some local actions have no donor counterpart
				for j := range mapping {
					mapping[j] = ops.Intn(donorActions+1) - 1
				}
				if err := main.ag.ImportMapped(narrow.ag, mapping); err != nil {
					t.Fatal(err)
				}
				main.ref.importMapped(narrow.ref, mapping)
			case k < 39:
				op = "donor step (same)"
				step(same, actions, i, op)
			default:
				op = "donor step (narrow)"
				step(narrow, donorActions, i, op)
			}
			if i%25 == 0 || op != "select+update" {
				main.equal(t, i, op)
			}
		}
		main.equal(t, -1, "end")
		same.equal(t, -1, "end")
		narrow.equal(t, -1, "end")
	}
}
