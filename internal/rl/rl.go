// Package rl implements the tabular Q-learning algorithm AutoScale is built
// on (Algorithm 1 of the paper): a lazily materialized Q-table over discrete
// states, epsilon-greedy action selection, the standard one-step Q update,
// snapshot/restore for persistence, and table transfer for the paper's
// learning-transfer experiments (Section VI-C).
//
// One key space (DESIGN.md §14): an Agent is built on a state grid (Interner;
// the core StateSpace's mixed-radix Table I grid) and every method addresses
// states by dense int32 index, bounds-checked against the grid. The table
// holds only what the agent has seen: each state has a pointer to its row of
// float64 bit patterns in atomic.Uint64 cells, allocated on first touch, so
// an agent's heap grows with the states it visits, not with the grid.
// Strings exist in exactly one plain type, Table (table.go): Snapshot is
// agent -> Table -> Encode, Restore is DecodeTable -> grid.Lookup per key,
// and a key the grid cannot render is refused with an error naming it.
// Reads (greedy selection, Q and visit lookups) are lock-free and
// allocation-free once a row is materialized; every write — RNG draws, row
// materialization, Q updates — funnels through one writer mutex (the
// single-writer rule), so readers can never observe a torn row: a row's
// values are stored before its pointer, and per-cell loads are atomic.
package rl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"autoscale/internal/exec"
	"autoscale/internal/obs"
)

// State is a discrete state key. The core package composes it from the
// Table I feature bins.
type State string

// Config holds the Q-learning hyperparameters.
type Config struct {
	// LearningRate is gamma in the paper's update rule (how much new
	// information overrides old). The paper selects 0.9.
	LearningRate float64
	// Discount is mu, the weight of future reward. The paper selects 0.1:
	// consecutive inference states are weakly related under stochastic
	// variance.
	Discount float64
	// Epsilon is the exploration probability of the epsilon-greedy
	// policy. The paper uses 0.1.
	Epsilon float64
	// InitLo/InitHi bound the random initialization of Q rows
	// ("Initialize Q(S,A) as random values").
	InitLo, InitHi float64
	// Seed drives exploration and initialization.
	Seed int64
}

// DefaultConfig returns the paper's hyperparameters (Section V-C).
func DefaultConfig() Config {
	return Config{
		LearningRate: 0.9,
		Discount:     0.1,
		Epsilon:      0.1,
		InitLo:       -1,
		InitHi:       1,
		Seed:         1,
	}
}

// Validate checks hyperparameter ranges.
func (c Config) Validate() error {
	switch {
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return errors.New("rl: learning rate must be in (0,1]")
	case c.Discount < 0 || c.Discount >= 1:
		return errors.New("rl: discount must be in [0,1)")
	case c.Epsilon < 0 || c.Epsilon > 1:
		return errors.New("rl: epsilon must be in [0,1]")
	case c.InitLo > c.InitHi:
		return errors.New("rl: InitLo above InitHi")
	}
	return nil
}

// entry is one state's slot in the table: a pointer to its row of float64
// bit patterns, nil until the state is first seen, and its visit count +1,
// so 0 means no visit entry (a restored zero-count entry must round-trip
// without a row). Selection touches both, so they share a cache line.
type entry struct {
	row    atomic.Pointer[[]atomic.Uint64]
	visits atomic.Int64
}

// table is the Q storage: one entry per state of the grid, and rows only for
// the states seen. A row's values are stored before its pointer, so the
// pointer store is the ready flag, and a row never moves once allocated — a
// reader sees either no row or a whole one, and a row slice stays valid
// across later writes. order lists the states with a row in materialization
// order; its first n entries are written, each before n counts it.
type table struct {
	actions int
	states  []entry
	order   []int32
	n       atomic.Int32 // rows materialized
}

func newTable(actions, states int) *table {
	return &table{
		actions: actions,
		states:  make([]entry, states),
		order:   make([]int32, states),
	}
}

// row returns state i's cells, or nil when it has no row. Lock-free.
func (t *table) row(i int32) []atomic.Uint64 {
	if p := t.states[i].row.Load(); p != nil {
		return *p
	}
	return nil
}

// writeRowLocked stores bits(j) into every cell of state i's row and
// returns the row. A state without one gets a new row, published only once
// the values are in. Caller holds wmu.
func (t *table) writeRowLocked(i int32, bits func(j int) uint64) []atomic.Uint64 {
	row := t.row(i)
	fresh := row == nil
	if fresh {
		// Grown through append, so cap is the size the allocator reserved;
		// MemoryBytes counts that.
		row = slices.Grow([]atomic.Uint64(nil), t.actions)[:t.actions]
	}
	for j := range row {
		row[j].Store(bits(j))
	}
	if fresh {
		n := t.n.Load()
		t.order[n] = i
		t.states[i].row.Store(&row)
		t.n.Store(n + 1)
	}
	return row
}

// visitsOf returns state i's visit count and whether it has an entry.
func (t *table) visitsOf(i int32) (n int64, ok bool) {
	v := t.states[i].visits.Load()
	return max(v-1, 0), v > 0
}

// Agent is a tabular Q-learning agent. It is safe for concurrent use:
// greedy reads are lock-free against the table's atomic cells, and all
// mutation serializes on the writer lock.
type Agent struct {
	cfg     Config // Epsilon herein is the initial value; live value in epsBits
	actions int
	grid    Interner
	tab     *table // sized once from the grid; never replaced

	// wmu is the single-writer lock: everything that draws from rng,
	// materializes rows or writes Q values holds it. Readers never do.
	wmu sync.Mutex
	rng *exec.Rand

	epsBits atomic.Uint64 // float64 bits of the live epsilon
	frozen  atomic.Bool

	// Learning-health counters, sampled read-only by the telemetry plane.
	// They are deliberately excluded from Snapshot: they describe this
	// process's learning dynamics, not the policy, so checkpoint envelopes
	// stay byte-compatible.
	tdEMABits  atomic.Uint64 // EMA of |TD error|, alpha 1/16
	tdSamples  atomic.Int64
	selections atomic.Int64 // selections that returned an action
	explores   atomic.Int64 // of those, how many took the epsilon branch
}

// tdAlpha is the smoothing factor of the TD-error EMA: 1/16 averages over
// roughly the last 16 updates — long enough to smooth per-request reward
// noise, short enough to show convergence stalls within a scrape interval.
const tdAlpha = 1.0 / 16

var errNoActions = errors.New("rl: need at least one action")

// ErrNoEnabled is returned by a selection whose mask enables no action.
var ErrNoEnabled = errors.New("rl: no enabled action")

// NewAgent creates an agent over a fixed-size action space whose states are
// the indices of grid. Only the per-state entry and order arrays are sized
// to the grid up front; rows are allocated as states are first seen.
func NewAgent(cfg Config, numActions int, grid Interner) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numActions < 1 {
		return nil, errNoActions
	}
	if grid == nil {
		return nil, errors.New("rl: agent needs a state grid")
	}
	a := &Agent{
		cfg:     cfg,
		actions: numActions,
		grid:    grid,
		tab:     newTable(numActions, grid.Size()),
		rng:     exec.NewRoot(cfg.Seed).Stream("rl.agent"),
	}
	a.epsBits.Store(math.Float64bits(cfg.Epsilon))
	return a, nil
}

// NumActions returns the size of the action space.
func (a *Agent) NumActions() int { return a.actions }

// Config returns the agent's hyperparameters (with the live epsilon).
func (a *Agent) Config() Config {
	c := a.cfg
	c.Epsilon = math.Float64frombits(a.epsBits.Load())
	return c
}

// Freeze disables exploration and learning: selection becomes purely
// greedy and updates become no-ops. This is the paper's post-convergence
// exploitation mode.
func (a *Agent) Freeze() { a.frozen.Store(true) }

// SetEpsilon changes the exploration probability at runtime. AutoScale uses
// this to switch a converged agent to greedy selection ("after the learning
// is complete, the Q-table is used to select A which maximizes Q(S,A)",
// Section IV-B) while leaving online learning active so the agent keeps
// adapting to never-seen states.
func (a *Agent) SetEpsilon(eps float64) error {
	if eps < 0 || eps > 1 {
		return errors.New("rl: epsilon must be in [0,1]")
	}
	a.epsBits.Store(math.Float64bits(eps))
	return nil
}

// Epsilon returns the current exploration probability (which SetEpsilon may
// change at runtime).
func (a *Agent) Epsilon() float64 { return math.Float64frombits(a.epsBits.Load()) }

// Frozen reports whether the agent is in exploitation-only mode.
func (a *Agent) Frozen() bool { return a.frozen.Load() }

// StateIndex resolves a key to its dense index; ok is false for keys the
// agent's grid cannot render.
func (a *Agent) StateIndex(s State) (int32, bool) { return a.grid.Lookup(s) }

// KeyOf renders the string key of a dense state index.
func (a *Agent) KeyOf(i int32) State { return a.grid.KeyOf(i) }

// valid reports whether i addresses a row of the table.
func (a *Agent) valid(i int32) bool { return i >= 0 && int(i) < len(a.tab.states) }

func errIndex(i int32) error { return fmt.Errorf("rl: state index %d out of range", i) }

// ensureRowLocked returns state i's row, materializing it with random values
// on first touch — the same draw sequence (one Float64 per action, in action
// order) as the historical map-backed table, so fixed-seed runs replay
// identically. Caller holds wmu.
func (a *Agent) ensureRowLocked(i int32) []atomic.Uint64 {
	if row := a.tab.row(i); row != nil {
		return row
	}
	lo, span := a.cfg.InitLo, a.cfg.InitHi-a.cfg.InitLo
	return a.tab.writeRowLocked(i, func(int) uint64 { return math.Float64bits(lo + span*a.rng.Float64()) })
}

func actionEnabled(mask []bool, j int) bool {
	return mask == nil || (j < len(mask) && mask[j])
}

func countEnabled(mask []bool, n int) int {
	if mask == nil {
		return n
	}
	if len(mask) > n {
		mask = mask[:n] // entries past the action count enable nothing
	}
	c := 0
	for _, on := range mask {
		if on {
			c++
		}
	}
	return c
}

// nthEnabled returns the index of the k-th (0-based) enabled action.
func nthEnabled(mask []bool, n, k int) int {
	for j := 0; j < n; j++ {
		if actionEnabled(mask, j) {
			if k == 0 {
				return j
			}
			k--
		}
	}
	return 0
}

func loadQ(cell *atomic.Uint64) float64 { return math.Float64frombits(cell.Load()) }

// argmaxRow returns the first-enabled argmax of row and its Q value (strict >
// keeps the historical first-wins tie-break); -1 when mask disables
// everything. The mask's presence is decided once, so each cell costs one
// atomic load and one compare.
func argmaxRow(row []atomic.Uint64, mask []bool) (best int, bestQ float64) {
	if mask != nil && len(mask) < len(row) {
		row = row[:len(mask)] // actions past the mask's end are disabled
	}
	best = -1
	for j := range row {
		if mask != nil && !mask[j] {
			continue
		}
		if q := math.Float64frombits(row[j].Load()); best < 0 || q > bestQ {
			best, bestQ = j, q
		}
	}
	return best, bestQ
}

// SelectActionIdx chooses an action for the state at dense index i with the
// epsilon-greedy policy over the actions enabled in mask. A nil mask enables
// every action; a mask that disables everything is an error. It allocates
// nothing; the draw serializes on the writer lock because it advances the
// agent's RNG.
func (a *Agent) SelectActionIdx(i int32, mask []bool) (int, error) {
	return a.SelectIdx(i, mask, nil)
}

// SelectIdx is SelectActionIdx with optional decision-provenance capture:
// it fills p's Epsilon, Frozen, Explored and Q (the per-action row as the
// selection read it, refilled in place) and leaves the other fields to its
// caller; nil p is the untraced hot path. Provenance only records what the
// selection read — it consumes no draws — so a traced run replays an
// untraced one byte for byte. An error resets p.
func (a *Agent) SelectIdx(i int32, mask []bool, p *obs.Provenance) (int, error) {
	if !a.valid(i) {
		p.Reset()
		return 0, errIndex(i)
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return a.selectLocked(i, mask, countEnabled(mask, a.actions), -1, p)
}

// selectLocked is the epsilon-greedy rule over the n actions mask enables
// in valid state i. best, when not negative, is the greedy choice the
// caller already read from i's current row; the greedy branch then skips
// its scan. Caller holds wmu.
func (a *Agent) selectLocked(i int32, mask []bool, n, best int, p *obs.Provenance) (int, error) {
	if n == 0 {
		p.Reset()
		return 0, ErrNoEnabled
	}
	v := &a.tab.states[i].visits
	v.Store(max(v.Load(), 1) + 1) // single writer: load+store is the increment
	a.selections.Add(1)
	row := a.ensureRowLocked(i) // materialize so a visited state exists even when exploring
	eps, frozen := math.Float64frombits(a.epsBits.Load()), a.frozen.Load()
	explored := !frozen && a.rng.Float64() < eps
	idx := best
	if explored {
		a.explores.Add(1)
		idx = nthEnabled(mask, a.actions, a.rng.Intn(n))
	} else if idx < 0 {
		idx, _ = argmaxRow(row, mask)
	}
	if p != nil {
		p.Epsilon, p.Frozen, p.Explored = eps, frozen, explored
		p.Q = p.Q[:0]
		for j := range row {
			p.Q = append(p.Q, loadQ(&row[j]))
		}
	}
	return idx, nil
}

// Staged is the (S, A, R) of a step whose Q update waits for the next
// observed state S′ (Algorithm 1).
type Staged struct {
	State  int32
	Action int
	Reward float64
}

// StepIdx is Algorithm 1's agent half for one inference, in one critical
// section: it completes the staged update st (nil: nothing staged; a frozen
// agent drops it) against S′ = i with the Q-learning rule, then selects an
// action for i exactly as SelectIdx does. The argmax of S′'s row that gives
// max Q(S′,·) is also the greedy choice, unless the update just rewrote
// that row (st.State == i). When mask enables nothing the update still
// applies, with max Q(S′,·) = 0, and StepIdx returns ErrNoEnabled; on any
// other error nothing has changed. Every error resets p.
func (a *Agent) StepIdx(st *Staged, i int32, mask []bool, p *obs.Provenance) (int, error) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	learn := st != nil && !a.frozen.Load()
	if err := a.checkStep(st, learn, i); err != nil {
		p.Reset()
		return 0, err
	}
	n := countEnabled(mask, a.actions)
	best := -1
	if learn {
		best = a.updateLocked(st.State, st.Action, st.Reward, i, mask, n)
		if st.State == i {
			best = -1
		}
	}
	return a.selectLocked(i, mask, n, best, p)
}

// checkStep validates a StepIdx call: S′ = i, and st when it will be
// applied.
func (a *Agent) checkStep(st *Staged, learn bool, i int32) error {
	if learn {
		return a.checkUpdate(st.State, st.Action, i)
	}
	if !a.valid(i) {
		return errIndex(i)
	}
	return nil
}

// BestActionIdx is the lock-free greedy read the serving fast path uses: for
// a materialized state it reads the table with zero locks and zero
// allocations. Never-seen states fall to the writer path, which materializes
// the row (consuming the same init draws the map-backed table did).
func (a *Agent) BestActionIdx(i int32, mask []bool) (int, error) {
	if !a.valid(i) {
		return 0, errIndex(i)
	}
	row := a.tab.row(i)
	if row == nil {
		if countEnabled(mask, a.actions) == 0 {
			return 0, ErrNoEnabled
		}
		a.wmu.Lock()
		row = a.ensureRowLocked(i)
		a.wmu.Unlock()
	}
	if best, _ := argmaxRow(row, mask); best >= 0 {
		return best, nil
	}
	return 0, ErrNoEnabled
}

// UpdateIdx applies the one-step Q-learning rule of Algorithm 1 to the states
// at dense indices si (S) and ni (S'):
//
//	Q(S,A) <- Q(S,A) + gamma [ R + mu max_A' Q(S',A') - Q(S,A) ]
//
// nextMask restricts which next-state actions are considered (feasibility of
// the next request's model). Frozen agents ignore updates.
func (a *Agent) UpdateIdx(si int32, action int, reward float64, ni int32, nextMask []bool) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return nil
	}
	if err := a.checkUpdate(si, action, ni); err != nil {
		return err
	}
	a.updateLocked(si, action, reward, ni, nextMask, countEnabled(nextMask, a.actions))
	return nil
}

// updateLocked applies the Q-learning rule to validated arguments, n being
// how many actions nextMask enables. It materializes S′'s row only when n
// is positive (max Q(S′,·) is 0 otherwise), then S's, and returns the
// argmax of S′'s row as it stood before the write (-1 when n is 0). Caller
// holds wmu.
func (a *Agent) updateLocked(si int32, action int, reward float64, ni int32, nextMask []bool, n int) (nextArg int) {
	nextArg = -1
	var nextBest float64
	if n > 0 {
		nextArg, nextBest = argmaxRow(a.ensureRowLocked(ni), nextMask)
	}
	a.tdLocked(si, action, reward, nextBest)
	return nextArg
}

// tdLocked moves Q(si, action) toward reward + mu*next by the learning rate
// and feeds the TD error to the health EMA: the step both update rules
// share, differing only in next. Caller holds wmu.
func (a *Agent) tdLocked(si int32, action int, reward, next float64) {
	cell := &a.ensureRowLocked(si)[action]
	q := loadQ(cell)
	delta := reward + a.cfg.Discount*next - q
	a.noteTDLocked(delta)
	cell.Store(math.Float64bits(q + a.cfg.LearningRate*delta))
}

// checkUpdate validates the arguments every TD update shares.
func (a *Agent) checkUpdate(si int32, action int, ni int32) error {
	switch {
	case !a.valid(si):
		return errIndex(si)
	case !a.valid(ni):
		return errIndex(ni)
	case action < 0 || action >= a.actions:
		return fmt.Errorf("rl: action %d out of range", action)
	}
	return nil
}

// noteTDLocked folds one TD error into the health EMA. Caller holds wmu.
func (a *Agent) noteTDLocked(delta float64) {
	if delta < 0 {
		delta = -delta
	}
	if a.tdSamples.Load() == 0 {
		a.tdEMABits.Store(math.Float64bits(delta))
	} else {
		ema := math.Float64frombits(a.tdEMABits.Load())
		a.tdEMABits.Store(math.Float64bits(ema + tdAlpha*(delta-ema)))
	}
	a.tdSamples.Add(1)
}

// TDErrorEMA returns the exponential moving average of the absolute TD error
// and how many updates fed it. A shrinking EMA is the paper's convergence
// signal ("the error rate is gradually decreasing", Section VI-A) made
// observable at runtime; zero samples means the agent has never learned.
func (a *Agent) TDErrorEMA() (ema float64, samples int64) {
	return math.Float64frombits(a.tdEMABits.Load()), a.tdSamples.Load()
}

// ExplorationStats returns how many selections took the epsilon
// (exploration) branch out of the total. The ratio should track epsilon for
// a healthy unfrozen agent and fall to zero once frozen.
func (a *Agent) ExplorationStats() (explores, selections int64) {
	return a.explores.Load(), a.selections.Load()
}

// NumStates returns how many Q rows are materialized — the numerator of the
// state-space coverage gauge.
func (a *Agent) NumStates() int { return int(a.tab.n.Load()) }

// HasStateIdx reports whether the state at dense index i has a materialized
// Q row. Lock-free.
func (a *Agent) HasStateIdx(i int32) bool {
	return a.valid(i) && a.tab.states[i].row.Load() != nil
}

// ForEachMaterialized calls fn with the dense index of every materialized
// state in ascending order (on the Table I grid that is also ascending
// lexicographic key order); callers that want the key ask KeyOf. It walks
// the whole grid; Rows is the O(rows) view for callers that do not need
// index order. fn must not mutate the agent.
func (a *Agent) ForEachMaterialized(fn func(i int32)) {
	t := a.tab
	for i := range t.states {
		if t.states[i].row.Load() != nil {
			fn(int32(i))
		}
	}
}

// Rows returns the dense index of every materialized state in
// materialization order, which depends on the agent's history (and on map
// order after Restore): a caller whose result must not depend on it breaks
// ties by index. The order list only grows, so a later call returns an
// extension of an earlier one, and a caller can catch up on the rows added
// since by slicing past what it has read. Lock-free; the slice is a view of
// the agent's own list and must not be written.
func (a *Agent) Rows() []int32 {
	t := a.tab
	n := t.n.Load()
	return t.order[:n:n]
}

// CopyRowIdx initializes dst's Q row as a copy of src's current row. It is
// the generalization hook AutoScale uses to seed a never-visited state from
// its nearest trained neighbour (the "energy trend knowledge" the paper says a
// trained model carries implicitly). Copying from a missing src materializes
// it first (random init).
func (a *Agent) CopyRowIdx(dst, src int32) error {
	switch {
	case !a.valid(dst):
		return errIndex(dst)
	case !a.valid(src):
		return errIndex(src)
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	from := a.ensureRowLocked(src)
	if dst != src {
		a.tab.writeRowLocked(dst, func(j int) uint64 { return from[j].Load() })
	}
	return nil
}

// QIdx returns the current Q value of (state i, action): a pure lock-free
// read that materializes nothing. ok is false for an out-of-range index or
// action and for a state with no row yet.
func (a *Agent) QIdx(i int32, action int) (q float64, ok bool) {
	if action < 0 || action >= a.actions || !a.valid(i) {
		return 0, false
	}
	row := a.tab.row(i)
	if row == nil {
		return 0, false
	}
	return loadQ(&row[action]), true
}

// VisitsIdx returns how many times state i was selected against (0 for an
// out-of-range index). Lock-free.
func (a *Agent) VisitsIdx(i int32) int {
	if !a.valid(i) {
		return 0
	}
	n, _ := a.tab.visitsOf(i)
	return int(n)
}

// TotalVisits returns the total number of action selections across all
// states — zero means the agent has never been asked for a decision, which
// the fleet syncer treats as "new device, warm-start me".
func (a *Agent) TotalVisits() int {
	total := 0
	for i := range a.tab.states {
		n, _ := a.tab.visitsOf(int32(i))
		total += int(n)
	}
	return total
}

// MemoryBytes reports the heap the Q-table holds: the per-state entry and
// order arrays, and every materialized row at the size the allocator
// reserved for it plus the slice header its pointer addresses.
// TestMemoryBytesMatchesHeap holds it to the runtime's HeapAlloc delta; the
// paper reports 0.4 MB for its table.
func (a *Agent) MemoryBytes() int {
	const sliceHeader = 24
	t := a.tab
	total := 16*len(t.states) + 4*len(t.order)
	for i := range t.states {
		if p := t.states[i].row.Load(); p != nil {
			total += sliceHeader + 8*cap(*p)
		}
	}
	return total
}

// Table renders the agent as plain string-keyed data: a deep copy of every
// materialized row and every visit-count entry (restored zero counts
// included), with the live epsilon in Config.
func (a *Agent) Table() Table {
	t := a.tab
	out := Table{
		Config:  a.Config(),
		Actions: a.actions,
		Q:       make(map[State][]float64, t.n.Load()),
		Visits:  make(map[State]int),
	}
	for i := range t.states {
		row := t.row(int32(i))
		n, visited := t.visitsOf(int32(i))
		if row == nil && !visited {
			continue
		}
		key := a.grid.KeyOf(int32(i))
		if row != nil {
			q := make([]float64, len(row))
			for j := range q {
				q[j] = loadQ(&row[j])
			}
			out.Q[key] = q
		}
		if visited {
			out.Visits[key] = int(n)
		}
	}
	return out
}

// Snapshot serializes the agent (Q-table, visit counts, config) to JSON:
// agent -> Table -> Encode, under the writer lock so the payload is one
// consistent cut.
func (a *Agent) Snapshot() ([]byte, error) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return a.Table().Encode()
}

// Restore creates an agent on grid from a Snapshot payload (see DecodeTable
// for what is validated). Every key of the payload must be one the grid can
// render: a table from a foreign state space is refused with an error naming
// the first such key, rather than parked on rows no observation can reach.
func Restore(data []byte, grid Interner) (*Agent, error) {
	tbl, err := DecodeTable(data)
	if err != nil {
		return nil, err
	}
	ag, err := NewAgent(tbl.Config, tbl.Actions, grid)
	if err != nil {
		return nil, err
	}
	index := func(s State) (int32, error) {
		i, ok := grid.Lookup(s)
		if !ok || !ag.valid(i) {
			return 0, fmt.Errorf("rl: restore: state %q is not on this agent's state grid", s)
		}
		return i, nil
	}
	t := ag.tab // not yet shared: no reader, no other writer
	for s, row := range tbl.Q {
		i, err := index(s)
		if err != nil {
			return nil, err
		}
		t.writeRowLocked(i, func(j int) uint64 { return math.Float64bits(row[j]) })
	}
	for s, n := range tbl.Visits {
		i, err := index(s)
		if err != nil {
			return nil, err
		}
		t.states[i].visits.Store(int64(n) + 1)
	}
	return ag, nil
}

// Clone returns an independent copy of the agent that continues exactly as
// the agent would: its rows in materialization order, every visit entry,
// the RNG position, live epsilon, frozen flag and health counters. It is one
// consistent cut taken under the writer lock; lock-free readers may run
// concurrently, and no later write to either agent reaches the other.
func (a *Agent) Clone() *Agent {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	src := a.tab
	c := &Agent{
		cfg:     a.cfg,
		actions: a.actions,
		grid:    a.grid,
		tab:     newTable(a.actions, len(src.states)),
		rng:     a.rng.Clone(),
	}
	for i := range src.states {
		c.tab.states[i].visits.Store(src.states[i].visits.Load())
	}
	for _, i := range src.order[:src.n.Load()] {
		row := src.row(i)
		c.tab.writeRowLocked(i, func(j int) uint64 { return row[j].Load() })
	}
	c.epsBits.Store(a.epsBits.Load())
	c.frozen.Store(a.frozen.Load())
	c.tdEMABits.Store(a.tdEMABits.Load())
	c.tdSamples.Store(a.tdSamples.Load())
	c.selections.Store(a.selections.Load())
	c.explores.Store(a.explores.Load())
	return c
}

// TransferFrom warm-starts this agent's Q-table from a donor trained on
// another device (the paper's learning transfer): every donor row is copied
// in, overwriting local initialization, while this agent keeps its own
// hyperparameters and exploration state. The action spaces must match; use
// ImportMapped when they do not.
func (a *Agent) TransferFrom(donor *Agent) error {
	if donor == nil {
		return errors.New("rl: nil donor")
	}
	if donor.actions != a.actions {
		return fmt.Errorf("rl: transfer: action spaces differ (%d vs %d)", donor.actions, a.actions)
	}
	identity := make([]int, a.actions)
	for i := range identity {
		identity[i] = i
	}
	return a.ImportMapped(donor, identity)
}

// ImportMapped warm-starts this agent from a donor whose action space
// differs: srcForDst[i] names the donor action whose Q value seeds this
// agent's action i (-1 keeps the local initialization). This is how
// AutoScale transfers a model between devices with different DVFS ladders
// and co-processor sets (Section VI-C).
//
// The donor's materialized rows are walked in ascending donor index and
// translated through the two grids (donor KeyOf, local Lookup), so the init
// draws a never-seen local row consumes — which is what an unmapped action
// keeps — depend on the seed alone. A donor state the local grid cannot
// render fails the import before anything is written.
func (a *Agent) ImportMapped(donor *Agent, srcForDst []int) error {
	if donor == nil {
		return errors.New("rl: nil donor")
	}
	if len(srcForDst) != a.actions {
		return fmt.Errorf("rl: mapping has %d entries, want %d", len(srcForDst), a.actions)
	}
	for _, src := range srcForDst {
		if src >= donor.actions {
			return fmt.Errorf("rl: mapping refers to donor action %d of %d", src, donor.actions)
		}
	}
	type rowPair struct{ donor, local int32 }
	var pairs []rowPair
	var alien State
	donor.ForEachMaterialized(func(di int32) {
		key := donor.grid.KeyOf(di)
		if i, ok := a.grid.Lookup(key); ok && a.valid(i) {
			pairs = append(pairs, rowPair{di, i})
		} else if alien == "" {
			alien = key
		}
	})
	if alien != "" {
		return fmt.Errorf("rl: import: donor state %q is not on this agent's state grid", alien)
	}

	a.wmu.Lock()
	defer a.wmu.Unlock()
	donorRow := make([]float64, donor.actions)
	for _, p := range pairs {
		cells := donor.tab.row(p.donor)
		for j := range donorRow {
			donorRow[j] = loadQ(&cells[j])
		}
		row := a.ensureRowLocked(p.local)
		for j, src := range srcForDst {
			if src >= 0 {
				row[j].Store(math.Float64bits(donorRow[src]))
			}
		}
	}
	return nil
}
