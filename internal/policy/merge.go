package policy

import (
	"fmt"
	"math"

	"autoscale/internal/rl"
)

// Merge federates compatible Q-tables into one shared fleet policy — the
// paper's Section VI-C learning transfer generalized from one donor to a
// whole fleet. Every input must carry the same ConfigHash and action-space
// cardinality; Merge refuses heterogeneous groups (the Syncer forms the
// groups).
//
// Row semantics: a state materialized on only one device passes through
// unchanged; a state known to several devices is averaged per action with
// each device's row weighted by that device's visit count for the state (a
// device that faced a state a thousand times outvotes one that saw it twice).
// Rows with zero recorded visits weigh as one visit so legacy tables still
// participate. Merged visit counts are the sums, so iterated merges stay
// properly weighted; a sum an int cannot hold, per state or over the whole
// table, fails with rl.ErrVisitOverflow.
//
// The merged checkpoint is filed under FleetDevice(hash), lists its source
// devices, keeps the first input's hyperparameters (value semantics do not
// depend on exploration knobs), and carries generation 0 until saved.
func Merge(cks []*Checkpoint) (*Checkpoint, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("policy: merge needs at least one checkpoint")
	}
	hash, actions := cks[0].ConfigHash, cks[0].Actions
	tables := make([]rl.Table, len(cks))
	for i, ck := range cks {
		if ck.ConfigHash != hash {
			return nil, fmt.Errorf("policy: merge: %s has config hash %s, group has %s",
				ck.Device, ck.ConfigHash, hash)
		}
		if ck.Actions != actions {
			return nil, fmt.Errorf("policy: merge: %s has %d actions, group has %d",
				ck.Device, ck.Actions, actions)
		}
		tbl, err := ck.Table()
		if err != nil {
			return nil, fmt.Errorf("policy: merge: %s: %w", ck.Device, err)
		}
		tables[i] = tbl
	}

	type contribution struct {
		row    []float64
		weight float64
		visits int
	}
	byState := make(map[rl.State][]contribution)
	for _, tbl := range tables {
		for s, row := range tbl.Q {
			n := tbl.Visits[s]
			w := float64(n)
			if w <= 0 {
				w = 1
			}
			byState[s] = append(byState[s], contribution{row: row, weight: w, visits: n})
		}
	}

	merged := rl.Table{
		Config:  tables[0].Config,
		Actions: actions,
		Q:       make(map[rl.State][]float64, len(byState)),
		Visits:  make(map[rl.State]int, len(byState)),
	}
	total := 0
	for s, contribs := range byState {
		row := make([]float64, actions)
		totalW, totalN := 0.0, 0
		for _, c := range contribs {
			if c.visits > math.MaxInt-totalN {
				return nil, fmt.Errorf("policy: merge: state %q: %w", s, rl.ErrVisitOverflow)
			}
			totalW += c.weight
			totalN += c.visits
		}
		if totalN > math.MaxInt-total {
			return nil, fmt.Errorf("policy: merge: %w", rl.ErrVisitOverflow)
		}
		total += totalN
		for _, c := range contribs {
			f := c.weight / totalW
			for i, q := range c.row {
				row[i] += f * q
			}
		}
		merged.Q[s] = row
		merged.Visits[s] = totalN
	}

	snapshot, err := merged.Encode()
	if err != nil {
		return nil, fmt.Errorf("policy: merge: %w", err)
	}
	ck, err := NewCheckpoint(FleetDevice(hash), hash, snapshot)
	if err != nil {
		return nil, err
	}
	ck.Sources = sortedDevices(cks)
	return ck, nil
}
