package rl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ErrVisitOverflow marks a table whose visit counts an agent cannot hold: a
// single count of math.MaxInt (Restore stores each count plus one), or counts
// whose sum overflows int (TotalVisits would wrap negative).
var ErrVisitOverflow = errors.New("rl: restore: visit counts overflow int")

// Interner is the state grid an Agent is built on: a fixed bijection between
// string state keys and the dense indices [0, Size). The core package's
// StateSpace implements it over the mixed-radix Table I grid. The agent
// allocates its table once at Size() and is addressed by index from then on;
// keys cross the grid in exactly two places, Restore (Lookup) and Table
// (KeyOf).
//
// Implementations must be safe for concurrent use and stable: an index always
// renders the same key, and Size never changes once an agent holds the grid.
type Interner interface {
	// Size returns the number of representable states; every index in
	// [0, Size) is valid for KeyOf.
	Size() int
	// KeyOf renders the canonical string key of a dense index.
	KeyOf(i int32) State
	// Lookup parses a key into its dense index. ok is false when the grid
	// cannot render the key (alien formatting, bins out of range).
	Lookup(s State) (int32, bool)
}

// Table is a Q-table as plain data — the one place states are named by
// string. It is what a snapshot serializes, what the policy plane inspects,
// merges and ships between devices, and what Restore loads onto a grid; no
// agent is needed to read one.
type Table struct {
	Config  Config              `json:"config"`
	Actions int                 `json:"actions"`
	Q       map[State][]float64 `json:"q"`
	Visits  map[State]int       `json:"visits"`
}

// DecodeTable parses and validates a snapshot payload: hyperparameters in
// range, at least one action, every row spanning the action space, no
// negative visit count, no visit count or total an agent cannot hold
// (ErrVisitOverflow). Snapshots written before visit counts existed (no
// "visits" member) decode with every row credited one visit, so visit-weighted
// federation still counts the table as (minimal) experience instead of
// discarding it.
func DecodeTable(data []byte) (Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return Table{}, fmt.Errorf("rl: restore: %w", err)
	}
	if err := t.Config.Validate(); err != nil {
		return Table{}, err
	}
	if t.Actions < 1 {
		return Table{}, errNoActions
	}
	if t.Q == nil {
		t.Q = map[State][]float64{}
	}
	for s, row := range t.Q {
		if len(row) != t.Actions {
			return Table{}, fmt.Errorf("rl: restore: state %q has %d actions, want %d", s, len(row), t.Actions)
		}
	}
	if t.Visits == nil {
		t.Visits = make(map[State]int, len(t.Q))
		for s := range t.Q {
			t.Visits[s] = 1
		}
	}
	total := 0
	for s, n := range t.Visits {
		if n < 0 {
			return Table{}, fmt.Errorf("rl: restore: state %q has negative visit count %d", s, n)
		}
		if n == math.MaxInt || n > math.MaxInt-total {
			return Table{}, ErrVisitOverflow
		}
		total += n
	}
	return t, nil
}

// Encode serializes the table. json.Marshal sorts map keys, so the payload is
// a pure function of the table's contents — byte-identical to what the
// map-backed agent of the first releases wrote.
func (t Table) Encode() ([]byte, error) { return json.Marshal(t) }
