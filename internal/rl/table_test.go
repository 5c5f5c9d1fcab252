package rl

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestVisitCountsAndRowsAreCopies(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 2)
	ag.SelectActionIdx(s, nil)
	ag.SelectActionIdx(s, nil)
	ag.UpdateIdx(s, 0, 3, s, nil)

	tbl := ag.Table()
	key := grid.KeyOf(s)
	if tbl.Visits[key] != 2 || len(tbl.Visits) != 1 {
		t.Fatalf("Visits = %v", tbl.Visits)
	}
	if ag.TotalVisits() != 2 {
		t.Fatalf("TotalVisits = %d, want 2", ag.TotalVisits())
	}
	if len(tbl.Q) != 1 || len(tbl.Q[key]) != 2 || tbl.Actions != 2 {
		t.Fatalf("Q = %v", tbl.Q)
	}
	// Mutating the copy must not reach the agent.
	tbl.Visits[key] = 99
	tbl.Q[key][0] = -1e9
	if ag.VisitsIdx(s) != 2 || q(t, ag, s, 0) == -1e9 {
		t.Fatal("Table returned aliased internals")
	}
}

// TestSnapshotIsTableEncode: Snapshot is agent -> Table -> Encode, and
// DecodeTable -> Encode reproduces the payload byte for byte.
func TestSnapshotIsTableEncode(t *testing.T) {
	ag := newTestAgent(t, DefaultConfig(), 3)
	for i := int32(0); i < 6; i++ {
		a, _ := ag.SelectActionIdx(i, nil)
		ag.UpdateIdx(i, a, float64(i)-2.5, (i+1)%6, nil)
	}
	snap, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	viaTable, err := ag.Table().Encode()
	if err != nil || !bytes.Equal(snap, viaTable) {
		t.Fatalf("Snapshot != Table().Encode() (%v)", err)
	}
	tbl, err := DecodeTable(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := tbl.Encode(); !bytes.Equal(again, snap) {
		t.Fatalf("DecodeTable -> Encode moved bytes:\n got %s\nwant %s", again, snap)
	}
}

// TestRestoreLegacySnapshot: snapshots written before visit counts existed
// (no "visits" key) restore with one visit per materialized state, so
// visit-weighted federation still counts them as minimal experience.
func TestRestoreLegacySnapshot(t *testing.T) {
	legacy, err := json.Marshal(map[string]any{
		"config":  DefaultConfig(),
		"actions": 2,
		"q":       map[string][]float64{"s01": {1, 2}, "s02": {3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := DecodeTable(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Visits["s01"] != 1 || tbl.Visits["s02"] != 1 || len(tbl.Visits) != 2 {
		t.Fatalf("legacy decode visits: %v", tbl.Visits)
	}
	ag, err := Restore(legacy, grid)
	if err != nil {
		t.Fatal(err)
	}
	if ag.VisitsIdx(1) != 1 || ag.VisitsIdx(2) != 1 || ag.TotalVisits() != 2 {
		t.Fatalf("legacy restore visits: s01=%d s02=%d", ag.VisitsIdx(1), ag.VisitsIdx(2))
	}
	if got := q(t, ag, 2, 1); got != 4 {
		t.Fatalf("legacy restore Q(s02,1) = %v", got)
	}
}

func TestRestoreRejectsNegativeVisits(t *testing.T) {
	data, err := json.Marshal(map[string]any{
		"config":  DefaultConfig(),
		"actions": 1,
		"q":       map[string][]float64{"s00": {1}},
		"visits":  map[string]int{"s00": -3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data, grid); err == nil {
		t.Fatal("negative visit count restored silently")
	}
}

// TestDecodeTableValidation keeps every refusal the agent-building decoders
// had: malformed JSON, bad hyperparameters, no actions, a row narrower than
// the action space, a negative visit count.
func TestDecodeTableValidation(t *testing.T) {
	mk := func(cfg Config, actions int, q map[string][]float64, visits map[string]int) []byte {
		data, err := json.Marshal(map[string]any{"config": cfg, "actions": actions, "q": q, "visits": visits})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	badCfg := DefaultConfig()
	badCfg.LearningRate = 0
	for name, data := range map[string][]byte{
		"garbage":         []byte("not json"),
		"bad config":      mk(badCfg, 1, nil, nil),
		"zero actions":    mk(DefaultConfig(), 0, nil, nil),
		"short row":       mk(DefaultConfig(), 2, map[string][]float64{"s00": {1}}, nil),
		"negative visits": mk(DefaultConfig(), 1, map[string][]float64{"s00": {1}}, map[string]int{"s00": -3}),
	} {
		if _, err := DecodeTable(data); err == nil {
			t.Errorf("%s: decoded silently", name)
		}
		if _, err := Restore(data, grid); err == nil {
			t.Errorf("%s: restored silently", name)
		}
	}
	// A visit entry without a row, and a zero count, are data: they round-trip.
	ok := mk(DefaultConfig(), 1, map[string][]float64{"s00": {1}}, map[string]int{"s00": 0, "s05": 4})
	ag, err := Restore(ok, grid)
	if err != nil {
		t.Fatal(err)
	}
	if tbl := ag.Table(); len(tbl.Visits) != 2 || tbl.Visits["s05"] != 4 || len(tbl.Q) != 1 {
		t.Fatalf("visit-only entries lost: %+v", tbl)
	}
}

// TestDecodeTableRejectsVisitOverflow: a count Restore cannot store plus one,
// and counts whose sum wraps TotalVisits, are refused by name.
func TestDecodeTableRejectsVisitOverflow(t *testing.T) {
	for _, visits := range []map[string]int{
		{"s00": math.MaxInt},
		{"s00": math.MaxInt/2 + 1, "s01": math.MaxInt/2 + 1},
	} {
		data, err := json.Marshal(map[string]any{
			"config": DefaultConfig(), "actions": 1, "q": map[string][]float64{"s00": {1}}, "visits": visits,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeTable(data); !errors.Is(err, ErrVisitOverflow) {
			t.Errorf("visits %v: err = %v, want ErrVisitOverflow", visits, err)
		}
	}
}

// TestRestoreRefusesAlienKey: a key the grid cannot render is an error that
// names it, whether it appears among the rows or only among the visits.
func TestRestoreRefusesAlienKey(t *testing.T) {
	for _, data := range []string{
		`{"config":{"LearningRate":0.9,"Discount":0.1,"Epsilon":0.1,"InitLo":-1,"InitHi":1,"Seed":1},"actions":1,"q":{"s00":[1],"foreign|key":[2]},"visits":{}}`,
		`{"config":{"LearningRate":0.9,"Discount":0.1,"Epsilon":0.1,"InitLo":-1,"InitHi":1,"Seed":1},"actions":1,"q":{"s00":[1]},"visits":{"foreign|key":2}}`,
	} {
		if _, err := DecodeTable([]byte(data)); err != nil {
			t.Fatalf("the table itself is valid data: %v", err)
		}
		_, err := Restore([]byte(data), grid)
		if err == nil || !strings.Contains(err.Error(), `"foreign|key"`) {
			t.Fatalf("Restore error = %v, want one naming the alien key", err)
		}
	}
}

// FuzzDecodeTable: whatever DecodeTable accepts, an agent holds exactly —
// restored onto a grid that renders its keys, the agent's Table encodes to
// the decoded table's bytes; whatever it rejects comes back as an error.
// The overflow seeds are the counts an agent cannot hold: one that wraps
// Restore's stored count, and two whose sum wraps TotalVisits negative.
func FuzzDecodeTable(f *testing.F) {
	const cfg = `"config":{"LearningRate":0.9,"Discount":0.1,"Epsilon":0.1,"InitLo":-1,"InitHi":1,"Seed":1}`
	trained := newTestAgent(f, DefaultConfig(), 3)
	for i := int32(0); i < 6; i++ {
		if _, err := trained.SelectActionIdx(i, nil); err != nil {
			f.Fatal(err)
		}
		if err := trained.UpdateIdx(i, int(i)%3, float64(i), i+1, nil); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := trained.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(snap),
		`{` + cfg + `,"actions":2,"q":{"s01":[1,2],"s02":[3,4]}}`,
		`{` + cfg + `,"actions":1,"q":{"s00":[1]},"visits":{"s00":0,"s05":4}}`,
		`{` + cfg + `,"actions":1,"q":{"s00":[1],"foreign|key":[2]},"visits":{}}`,
		`{` + cfg + `,"actions":1,"q":{"s00":[1]},"visits":{"s00":-3}}`,
		`{` + cfg + `,"actions":1,"q":{"a":[1]},"visits":{"a":9223372036854775807}}`,
		`{` + cfg + `,"actions":1,"q":{"a":[1],"b":[2]},"visits":{"a":4611686018427387904,"b":4611686018427387904}}`,
		`{"config":{},"actions":0,"q":{}}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := DecodeTable(data)
		if err != nil {
			return
		}
		want, err := tbl.Encode()
		if err != nil {
			t.Fatalf("accepted table does not encode: %v", err)
		}
		var keys []State
		for s := range tbl.Q {
			keys = append(keys, s)
		}
		for s := range tbl.Visits {
			if _, ok := tbl.Q[s]; !ok {
				keys = append(keys, s)
			}
		}
		ag, err := Restore(data, gridOf(keys))
		if err != nil {
			t.Fatalf("accepted table does not restore: %v", err)
		}
		got, err := ag.Table().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the table:\n got %s\nwant %s", got, want)
		}
		// The syncer reads TotalVisits() > 0 as "has learned": a wrapped
		// sum would misfile an experienced device as blank.
		total := 0
		for _, n := range tbl.Visits {
			total += n
		}
		if tv := ag.TotalVisits(); tv < 0 || tv != total {
			t.Fatalf("TotalVisits = %d, want the decoded sum %d", tv, total)
		}
	})
}
