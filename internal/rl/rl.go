// Package rl implements the tabular Q-learning algorithm AutoScale is built
// on (Algorithm 1 of the paper): a lazily materialized Q-table over discrete
// states, epsilon-greedy action selection, the standard one-step Q update,
// snapshot/restore for persistence, and table transfer for the paper's
// learning-transfer experiments (Section VI-C).
//
// Hot-path representation (DESIGN.md §14): the table is a flat
// [states*actions] array of float64 bit patterns stored in atomic.Uint64
// cells, published through an atomic.Pointer. States are dense int32 indices
// minted by an Interner (the core StateSpace's mixed-radix grid plus a
// dynamic overflow for alien keys); string keys survive only at the
// snapshot/checkpoint boundary, where they are re-rendered so envelopes stay
// byte-compatible with the map-based format. Reads (greedy selection, Q
// lookups, HasState) are lock-free and allocation-free once a row is
// materialized; every write — RNG draws, row materialization, Q updates,
// interning, growth — funnels through one writer mutex (the single-writer
// rule), so readers can never observe a torn row: values are stored before
// the row's ready flag, and per-cell loads are atomic.
package rl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"autoscale/internal/exec"
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

// Per-state flag bits in table.flags. flagRow gates every lock-free row
// read: it is set (atomically, after the row's values) only once the row is
// fully materialized, so observing it implies the values are visible.
// flagVisit marks states carrying a visit-count entry — including restored
// zero-count entries, which must round-trip through snapshots.
const (
	flagRow   uint32 = 1 << 0
	flagVisit uint32 = 1 << 1
)

// table is one RCU-published generation of the dense Q storage. Cells hold
// float64 bit patterns; growth (dynamic interners only) copies into a larger
// table and republishes, so a reader holding the old generation still sees a
// consistent (if momentarily stale) snapshot.
type table struct {
	actions int
	states  int
	q       []atomic.Uint64 // states*actions float64 bits, row-major
	flags   []atomic.Uint32
	visits  []atomic.Int64
}

func newTable(actions, states int) *table {
	return &table{
		actions: actions,
		states:  states,
		q:       make([]atomic.Uint64, states*actions),
		flags:   make([]atomic.Uint32, states),
		visits:  make([]atomic.Int64, states),
	}
}

// Agent is a tabular Q-learning agent. It is safe for concurrent use:
// greedy reads are lock-free against the published table, and all mutation
// serializes on the writer lock.
type Agent struct {
	cfg     Config // Epsilon herein is the initial value; live value in epsBits
	actions int

	tab    atomic.Pointer[table]
	intern intern

	// wmu is the single-writer lock: everything that draws from rng,
	// materializes rows, writes Q values, interns overflow keys or grows
	// the table holds it. Readers never do.
	wmu sync.Mutex
	rng *exec.Rand

	epsBits      atomic.Uint64 // float64 bits of the live epsilon
	frozen       atomic.Bool
	materialized atomic.Int64

	// Learning-health counters, sampled read-only by the telemetry plane.
	// They are deliberately excluded from Snapshot: they describe this
	// process's learning dynamics, not the policy, so checkpoint envelopes
	// stay byte-compatible.
	tdEMABits  atomic.Uint64 // EMA of |TD error|, alpha 1/16
	tdSamples  atomic.Int64
	selections atomic.Int64 // SelectAction calls that returned an action
	explores   atomic.Int64 // of those, how many took the epsilon branch
}

// tdAlpha is the smoothing factor of the TD-error EMA: 1/16 averages over
// roughly the last 16 updates — long enough to smooth per-request reward
// noise, short enough to show convergence stalls within a scrape interval.
const tdAlpha = 1.0 / 16

// NewAgent creates an agent over a fixed-size action space with a fully
// dynamic state interner (states get indices in first-touch order).
func NewAgent(cfg Config, numActions int) (*Agent, error) {
	return newAgent(cfg, numActions, nil)
}

// NewAgentInterned creates an agent whose state indices come from a fixed
// base interner — the engine passes its StateSpace so the whole decide path
// runs on arithmetic indices. Keys outside the base grid (foreign checkpoint
// states) still work through the dynamic overflow.
func NewAgentInterned(cfg Config, numActions int, base Interner) (*Agent, error) {
	return newAgent(cfg, numActions, base)
}

func newAgent(cfg Config, numActions int, base Interner) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numActions < 1 {
		return nil, errors.New("rl: need at least one action")
	}
	a := &Agent{
		cfg:     cfg,
		actions: numActions,
		rng:     exec.NewRoot(cfg.Seed).Stream("rl.agent"),
	}
	a.intern.base = base
	a.epsBits.Store(math.Float64bits(cfg.Epsilon))
	// The base grid is pre-sized so base indices never trigger growth; the
	// zeroed cells are untouched pages until rows materialize.
	a.tab.Store(newTable(numActions, a.intern.baseSize()))
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

// Freeze disables exploration and learning: SelectAction becomes purely
// greedy and Update becomes a no-op. This is the paper's post-convergence
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

// StateIndex resolves a key to its dense index without interning it; ok is
// false for keys the agent has never seen and cannot represent in its base
// grid.
func (a *Agent) StateIndex(s State) (int32, bool) { return a.intern.lookup(s) }

// KeyOf renders the string key of a dense state index.
func (a *Agent) KeyOf(i int32) State { return a.intern.keyOf(i) }

// internLocked resolves or mints the index for s. Caller holds wmu.
func (a *Agent) internLocked(s State) int32 {
	if i, ok := a.intern.lookup(s); ok {
		return i
	}
	i := a.intern.add(s)
	a.growToLocked(int(i) + 1)
	return i
}

// growToLocked republishes a table with capacity >= states. Caller holds wmu.
func (a *Agent) growToLocked(states int) *table {
	t := a.tab.Load()
	if t.states >= states {
		return t
	}
	n := t.states * 2
	if n < 16 {
		n = 16
	}
	if n < states {
		n = states
	}
	nt := newTable(a.actions, n)
	for i := 0; i < t.states*t.actions; i++ {
		nt.q[i].Store(t.q[i].Load())
	}
	for i := 0; i < t.states; i++ {
		nt.flags[i].Store(t.flags[i].Load())
		nt.visits[i].Store(t.visits[i].Load())
	}
	a.tab.Store(nt)
	return nt
}

// tableForLocked validates an externally supplied index and returns a table
// covering it. Caller holds wmu.
func (a *Agent) tableForLocked(i int32) (*table, error) {
	if i < 0 || int(i) >= a.intern.count() {
		return nil, fmt.Errorf("rl: state index %d out of range", i)
	}
	return a.growToLocked(int(i) + 1), nil
}

// ensureRowLocked materializes row i with random values on first touch —
// the same draw sequence (one Float64 per action, in action order) as the
// historical map-backed table, so fixed-seed runs replay identically.
// Values are stored before flagRow, which readers acquire-load to gate the
// lock-free fast path. Caller holds wmu.
func (a *Agent) ensureRowLocked(t *table, i int32) {
	if t.flags[i].Load()&flagRow != 0 {
		return
	}
	row := t.q[int(i)*t.actions : (int(i)+1)*t.actions]
	span := a.cfg.InitHi - a.cfg.InitLo
	for j := range row {
		row[j].Store(math.Float64bits(a.cfg.InitLo + span*a.rng.Float64()))
	}
	t.flags[i].Or(flagRow)
	a.materialized.Add(1)
}

// installRowLocked writes explicit values into row i without consuming any
// randomness (restore/copy paths). Caller holds wmu.
func (a *Agent) installRowLocked(t *table, i int32, values []float64) {
	row := t.q[int(i)*t.actions : (int(i)+1)*t.actions]
	for j, v := range values {
		row[j].Store(math.Float64bits(v))
	}
	if t.flags[i].Load()&flagRow == 0 {
		t.flags[i].Or(flagRow)
		a.materialized.Add(1)
	}
}

func actionEnabled(mask []bool, j int) bool {
	return mask == nil || (j < len(mask) && mask[j])
}

func countEnabled(mask []bool, n int) int {
	if mask == nil {
		return n
	}
	c := 0
	for j := 0; j < n; j++ {
		if j < len(mask) && mask[j] {
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

func loadQ(t *table, i int32, j int) float64 {
	return math.Float64frombits(t.q[int(i)*t.actions+j].Load())
}

// argmaxRow returns the first-enabled argmax of row i and its Q value
// (strict > keeps the historical first-wins tie-break); -1 when mask
// disables everything. The row is sliced once and the mask's presence
// decided once, so each cell costs one atomic load and one compare.
func argmaxRow(t *table, i int32, mask []bool) (best int, bestQ float64) {
	row := t.q[int(i)*t.actions : (int(i)+1)*t.actions]
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

var errNoEnabled = errors.New("rl: no enabled action")

// SelectAction chooses an action for state s with the epsilon-greedy policy
// over the actions enabled in mask. A nil mask enables every action. It
// returns an error if the mask disables everything.
func (a *Agent) SelectAction(s State, mask []bool) (int, error) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return a.selectLocked(a.internLocked(s), mask, nil)
}

// SelectActionIdx is SelectAction over a dense state index — the engine's
// hot path. It allocates nothing; the epsilon-greedy draw serializes on the
// writer lock because it advances the agent's RNG.
func (a *Agent) SelectActionIdx(i int32, mask []bool) (int, error) {
	return a.SelectIdx(i, mask, nil)
}

// SelectProv captures why one epsilon-greedy selection chose its action:
// the epsilon in force, whether the agent was frozen, whether the draw
// explored, and the per-action Q-row from the published RCU snapshot. The
// Q slice is truncated and refilled in place so a caller-owned SelectProv
// is allocation-free in steady state.
type SelectProv struct {
	Epsilon  float64
	Frozen   bool
	Explored bool
	Q        []float64
}

// SelectIdx is SelectActionIdx with optional decision-provenance capture
// into p; nil p is the untraced hot path. Provenance only records what the
// selection read — it consumes no draws — so a traced run replays an
// untraced one byte for byte.
func (a *Agent) SelectIdx(i int32, mask []bool, p *SelectProv) (int, error) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if _, err := a.tableForLocked(i); err != nil {
		return 0, err
	}
	return a.selectLocked(i, mask, p)
}

func (a *Agent) selectLocked(i int32, mask []bool, p *SelectProv) (int, error) {
	n := countEnabled(mask, a.actions)
	if n == 0 {
		return 0, errNoEnabled
	}
	t := a.tab.Load()
	t.visits[i].Add(1)
	t.flags[i].Or(flagVisit)
	a.selections.Add(1)
	a.ensureRowLocked(t, i) // materialize so a visited state exists even when exploring
	eps, frozen := math.Float64frombits(a.epsBits.Load()), a.frozen.Load()
	explored := !frozen && a.rng.Float64() < eps
	var idx int
	if explored {
		a.explores.Add(1)
		idx = nthEnabled(mask, a.actions, a.rng.Intn(n))
	} else {
		idx, _ = argmaxRow(t, i, mask)
	}
	if p != nil {
		p.Epsilon, p.Frozen, p.Explored = eps, frozen, explored
		p.Q = p.Q[:0]
		for j := 0; j < a.actions; j++ {
			p.Q = append(p.Q, loadQ(t, i, j))
		}
	}
	return idx, nil
}

// BestAction returns the greedy action for s over the enabled actions.
func (a *Agent) BestAction(s State, mask []bool) (int, error) {
	if i, ok := a.intern.lookup(s); ok {
		if t := a.tab.Load(); int(i) < t.states && t.flags[i].Load()&flagRow != 0 {
			if best, _ := argmaxRow(t, i, mask); best >= 0 {
				return best, nil
			}
			return 0, errNoEnabled
		}
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return a.bestLocked(a.internLocked(s), mask)
}

// BestActionIdx is the lock-free greedy read the serving fast path uses: for
// a materialized state it reads the published table with zero locks and zero
// allocations. Never-seen states fall to the writer path, which materializes
// the row (consuming the same init draws the map-backed table did).
func (a *Agent) BestActionIdx(i int32, mask []bool) (int, error) {
	if t := a.tab.Load(); i >= 0 && int(i) < t.states && t.flags[i].Load()&flagRow != 0 {
		if best, _ := argmaxRow(t, i, mask); best >= 0 {
			return best, nil
		}
		return 0, errNoEnabled
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if _, err := a.tableForLocked(i); err != nil {
		return 0, err
	}
	return a.bestLocked(i, mask)
}

func (a *Agent) bestLocked(i int32, mask []bool) (int, error) {
	if countEnabled(mask, a.actions) == 0 {
		return 0, errNoEnabled
	}
	t := a.tab.Load()
	a.ensureRowLocked(t, i)
	best, _ := argmaxRow(t, i, mask)
	return best, nil
}

// Update applies the one-step Q-learning rule of Algorithm 1:
//
//	Q(S,A) <- Q(S,A) + gamma [ R + mu max_A' Q(S',A') - Q(S,A) ]
//
// nextMask restricts which next-state actions are considered (feasibility of
// the next request's model). Frozen agents ignore updates.
func (a *Agent) Update(s State, action int, reward float64, next State, nextMask []bool) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return nil
	}
	return a.updateLocked(a.internLocked(s), action, reward, a.internLocked(next), nextMask)
}

// UpdateIdx is Update over dense state indices (the engine's deferred-update
// hot path).
func (a *Agent) UpdateIdx(si int32, action int, reward float64, ni int32, nextMask []bool) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return nil
	}
	if _, err := a.tableForLocked(si); err != nil {
		return err
	}
	if _, err := a.tableForLocked(ni); err != nil {
		return err
	}
	return a.updateLocked(si, action, reward, ni, nextMask)
}

func (a *Agent) updateLocked(si int32, action int, reward float64, ni int32, nextMask []bool) error {
	if action < 0 || action >= a.actions {
		return fmt.Errorf("rl: action %d out of range", action)
	}
	t := a.tab.Load()
	var nextBest float64
	if countEnabled(nextMask, a.actions) > 0 {
		a.ensureRowLocked(t, ni)
		_, nextBest = argmaxRow(t, ni, nextMask)
	}
	a.ensureRowLocked(t, si)
	cell := &t.q[int(si)*t.actions+action]
	q := math.Float64frombits(cell.Load())
	delta := reward + a.cfg.Discount*nextBest - q
	a.noteTDLocked(delta)
	cell.Store(math.Float64bits(q + a.cfg.LearningRate*delta))
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

// ExplorationStats returns how many SelectAction calls took the epsilon
// (exploration) branch out of the total. The ratio should track epsilon for
// a healthy unfrozen agent and fall to zero once frozen.
func (a *Agent) ExplorationStats() (explores, selections int64) {
	return a.explores.Load(), a.selections.Load()
}

// NumStates returns how many Q rows are materialized — the numerator of the
// state-space coverage gauge.
func (a *Agent) NumStates() int { return int(a.materialized.Load()) }

// HasState reports whether state s has a materialized Q row. Lock-free.
func (a *Agent) HasState(s State) bool {
	i, ok := a.intern.lookup(s)
	return ok && a.HasStateIdx(i)
}

// HasStateIdx reports whether the state at dense index i has a materialized
// Q row. Lock-free.
func (a *Agent) HasStateIdx(i int32) bool {
	t := a.tab.Load()
	return i >= 0 && int(i) < t.states && t.flags[i].Load()&flagRow != 0
}

// ForEachMaterialized calls fn with the dense index of every materialized
// state in ascending order (for a grid-interned agent that is also ascending
// lexicographic key order); callers that want the key ask KeyOf. fn must not
// mutate the agent.
func (a *Agent) ForEachMaterialized(fn func(i int32)) {
	t := a.tab.Load()
	for i := range t.flags {
		if t.flags[i].Load()&flagRow != 0 {
			fn(int32(i))
		}
	}
}

// CopyRow initializes dst's Q row as a copy of src's current row. It is the
// generalization hook AutoScale uses to seed a never-visited state from its
// nearest trained neighbour (the "energy trend knowledge" the paper says a
// trained model carries implicitly). Copying from a missing src materializes
// it first (random init).
func (a *Agent) CopyRow(dst, src State) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	di := a.internLocked(dst)
	si := a.internLocked(src)
	a.copyRowLocked(di, si)
}

// CopyRowIdx is CopyRow over dense state indices.
func (a *Agent) CopyRowIdx(dst, src int32) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if _, err := a.tableForLocked(dst); err != nil {
		return err
	}
	if _, err := a.tableForLocked(src); err != nil {
		return err
	}
	a.copyRowLocked(dst, src)
	return nil
}

func (a *Agent) copyRowLocked(di, si int32) {
	t := a.tab.Load()
	a.ensureRowLocked(t, si)
	if di == si {
		return
	}
	for j := 0; j < t.actions; j++ {
		t.q[int(di)*t.actions+j].Store(t.q[int(si)*t.actions+j].Load())
	}
	if t.flags[di].Load()&flagRow == 0 {
		t.flags[di].Or(flagRow)
		a.materialized.Add(1)
	}
}

// Q returns the current Q value of (s, action); untouched states return
// their lazily initialized values.
func (a *Agent) Q(s State, action int) float64 {
	if action < 0 || action >= a.actions {
		return 0
	}
	if i, ok := a.intern.lookup(s); ok {
		if t := a.tab.Load(); int(i) < t.states && t.flags[i].Load()&flagRow != 0 {
			return loadQ(t, i, action)
		}
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	i := a.internLocked(s)
	t := a.tab.Load()
	a.ensureRowLocked(t, i)
	return loadQ(t, i, action)
}

// States returns the visited/materialized states in sorted order.
func (a *Agent) States() []State {
	out := make([]State, 0, a.materialized.Load())
	a.ForEachMaterialized(func(i int32) { out = append(out, a.KeyOf(i)) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Visits returns how many times s was selected against. Lock-free.
func (a *Agent) Visits(s State) int {
	i, ok := a.intern.lookup(s)
	if !ok {
		return 0
	}
	t := a.tab.Load()
	if int(i) >= t.states {
		return 0
	}
	return int(t.visits[i].Load())
}

// VisitCounts returns a copy of the per-state visit counts — the experience
// weights the policy plane uses when federating Q-tables across a fleet.
func (a *Agent) VisitCounts() map[State]int {
	t := a.tab.Load()
	out := make(map[State]int)
	for i := 0; i < t.states; i++ {
		if t.flags[i].Load()&flagVisit != 0 {
			out[a.intern.keyOf(int32(i))] = int(t.visits[i].Load())
		}
	}
	return out
}

// TotalVisits returns the total number of action selections across all
// states — zero means the agent has never been asked for a decision, which
// the fleet syncer treats as "new device, warm-start me".
func (a *Agent) TotalVisits() int {
	t := a.tab.Load()
	total := 0
	for i := 0; i < t.states; i++ {
		total += int(t.visits[i].Load())
	}
	return total
}

// Rows returns a deep copy of the materialized Q-table.
func (a *Agent) Rows() map[State][]float64 {
	t := a.tab.Load()
	out := make(map[State][]float64, a.materialized.Load())
	for i := 0; i < t.states; i++ {
		if t.flags[i].Load()&flagRow == 0 {
			continue
		}
		row := make([]float64, t.actions)
		for j := range row {
			row[j] = loadQ(t, int32(i), j)
		}
		out[a.intern.keyOf(int32(i))] = row
	}
	return out
}

// MemoryBytes estimates the Q-table's resident footprint: one float64 per
// (materialized state, action) pair plus key overhead. The paper reports
// 0.4 MB for its full table. (The dense backing array reserves the full
// grid up front, but untouched rows are never written, so their pages stay
// unmapped; this reports the touched working set, as the map did.)
func (a *Agent) MemoryBytes() int {
	total := 0
	a.ForEachMaterialized(func(i int32) { total += len(a.KeyOf(i)) + 8*a.actions })
	return total
}

// snapshot is the serialized agent state.
type snapshot struct {
	Config  Config              `json:"config"`
	Actions int                 `json:"actions"`
	Q       map[State][]float64 `json:"q"`
	Visits  map[State]int       `json:"visits"`
}

// Snapshot serializes the agent (Q-table, visit counts, config) to JSON.
// The dense table is re-rendered as string-keyed maps, so the payload is
// byte-compatible with snapshots written by the historical map-backed table
// (json.Marshal sorts map keys).
func (a *Agent) Snapshot() ([]byte, error) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return json.Marshal(snapshot{
		Config:  a.Config(),
		Actions: a.actions,
		Q:       a.Rows(),
		Visits:  a.VisitCounts(),
	})
}

// Restore creates an agent from a Snapshot payload. Snapshots written before
// visit counts existed restore with every materialized state credited one
// visit, so downstream visit-weighted federation still counts the table as
// (minimal) experience instead of discarding it.
func Restore(data []byte) (*Agent, error) {
	return RestoreInterned(data, nil)
}

// RestoreInterned is Restore with a fixed base interner: snapshot keys on
// the base grid land on their arithmetic indices (so a restored engine agent
// keeps the zero-alloc decide path), foreign keys go to the overflow.
func RestoreInterned(data []byte, base Interner) (*Agent, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("rl: restore: %w", err)
	}
	ag, err := newAgent(snap.Config, snap.Actions, base)
	if err != nil {
		return nil, err
	}
	ag.wmu.Lock()
	defer ag.wmu.Unlock()
	for s, row := range snap.Q {
		if len(row) != snap.Actions {
			return nil, fmt.Errorf("rl: restore: state %q has %d actions, want %d", s, len(row), snap.Actions)
		}
		i := ag.internLocked(s)
		ag.installRowLocked(ag.tab.Load(), i, row)
	}
	switch {
	case snap.Visits == nil:
		// Backward compat: pre-visit-count snapshot.
		t := ag.tab.Load()
		for i := 0; i < t.states; i++ {
			if t.flags[i].Load()&flagRow != 0 {
				t.visits[i].Store(1)
				t.flags[i].Or(flagVisit)
			}
		}
	default:
		for s, n := range snap.Visits {
			if n < 0 {
				return nil, fmt.Errorf("rl: restore: state %q has negative visit count %d", s, n)
			}
		}
		for s, n := range snap.Visits {
			i := ag.internLocked(s)
			t := ag.tab.Load()
			t.visits[i].Store(int64(n))
			t.flags[i].Or(flagVisit)
		}
	}
	return ag, nil
}

// NewAgentFromTable builds an agent directly from a Q-table and its visit
// counts — the constructor the policy plane uses to materialize a federated
// (merged) table as a live agent. Rows must all span the action space; nil
// visits defaults every row to one visit.
func NewAgentFromTable(cfg Config, actions int, q map[State][]float64, visits map[State]int) (*Agent, error) {
	ag, err := NewAgent(cfg, actions)
	if err != nil {
		return nil, err
	}
	ag.wmu.Lock()
	defer ag.wmu.Unlock()
	for s, row := range q {
		if len(row) != actions {
			return nil, fmt.Errorf("rl: table: state %q has %d actions, want %d", s, len(row), actions)
		}
		i := ag.internLocked(s)
		ag.installRowLocked(ag.tab.Load(), i, row)
	}
	t := ag.tab.Load()
	for i := 0; i < t.states; i++ {
		if t.flags[i].Load()&flagRow == 0 {
			continue
		}
		s := ag.intern.keyOf(int32(i))
		n, ok := visits[s]
		switch {
		case !ok:
			n = 1
		case n < 0:
			return nil, fmt.Errorf("rl: table: state %q has negative visit count %d", s, n)
		}
		t.visits[i].Store(int64(n))
		t.flags[i].Or(flagVisit)
	}
	return ag, nil
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
func (a *Agent) ImportMapped(donor *Agent, srcForDst []int) error {
	if donor == nil {
		return errors.New("rl: nil donor")
	}
	if len(srcForDst) != a.actions {
		return fmt.Errorf("rl: mapping has %d entries, want %d", len(srcForDst), a.actions)
	}
	donorQ := donor.Rows()
	donorActions := donor.actions
	for _, src := range srcForDst {
		if src >= donorActions {
			return fmt.Errorf("rl: mapping refers to donor action %d of %d", src, donorActions)
		}
	}

	a.wmu.Lock()
	defer a.wmu.Unlock()
	for s, donorRow := range donorQ {
		i := a.internLocked(s)
		t := a.tab.Load()
		a.ensureRowLocked(t, i)
		for j, src := range srcForDst {
			if src >= 0 {
				t.q[int(i)*t.actions+j].Store(math.Float64bits(donorRow[src]))
			}
		}
	}
	return nil
}
