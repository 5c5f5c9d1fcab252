package policy_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/policy"
	"autoscale/internal/rl"
)

// mapSnapshot mirrors the map-era agent's serialized shape.
type mapSnapshot struct {
	Config  rl.Config              `json:"config"`
	Actions int                    `json:"actions"`
	Q       map[rl.State][]float64 `json:"q"`
	Visits  map[rl.State]int       `json:"visits"`
}

// TestMapEraEnvelopeRoundTrip proves the dense-table agent is envelope
// byte-compatible with the historical map-backed table: a hand-built
// map-era snapshot (string-keyed Q and visit maps, exactly what the old
// agent serialized) wrapped in a checkpoint envelope warm-starts a dense
// agent on the engine's state grid, and the agent re-emits the identical
// snapshot — and hence an identical envelope, CRC and all.
func TestMapEraEnvelopeRoundTrip(t *testing.T) {
	const actions = 4
	// Two real Table I grid keys.
	q := map[rl.State][]float64{
		"0|1|0|1|0|0|1|1": {0.5, -1.25, 3.75, 0.1},
		"3|0|1|2|3|2|0|0": {-0.9, 2.5, 0.25, -4.5},
	}
	visits := map[rl.State]int{
		"0|1|0|1|0|0|1|1": 17,
		"3|0|1|2|3|2|0|0": 3,
	}
	snapBytes, err := json.Marshal(mapSnapshot{
		Config: rl.DefaultConfig(), Actions: actions, Q: q, Visits: visits,
	})
	if err != nil {
		t.Fatal(err)
	}

	ck := &policy.Checkpoint{
		Meta:     policy.Meta{Device: "phone-0", ConfigHash: "h", Actions: actions, States: len(q)},
		Snapshot: snapBytes,
	}
	env, err := policy.Encode(ck)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := policy.Decode(env)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-start the dense agent on the full Table I grid: the keys land on
	// their arithmetic indices.
	ag, err := rl.Restore(dec.Snapshot, core.NewStateSpace())
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range visits {
		i, ok := ag.StateIndex(s)
		if !ok {
			t.Fatalf("grid key %q did not look up", s)
		}
		if got := ag.VisitsIdx(i); got != want {
			t.Fatalf("visits(%q) = %d, want %d", s, got, want)
		}
	}

	resnap, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resnap, snapBytes) {
		t.Fatalf("dense agent re-emitted a different snapshot:\n got %s\nwant %s", resnap, snapBytes)
	}

	env2, err := policy.Encode(&policy.Checkpoint{Meta: dec.Meta, Snapshot: resnap})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env2, env) {
		t.Fatalf("re-encoded envelope differs (CRC contents changed):\n got %s\nwant %s", env2, env)
	}
}

// TestAlienKeyRefusedByName: a table naming a state the engine's grid cannot
// render is plain data to the policy plane (it encodes and decodes), but
// putting it on a grid is an error that names the key — rl.Restore and
// Engine.RestoreQTable alike — and the engine keeps the table it had.
func TestAlienKeyRefusedByName(t *testing.T) {
	e := goldenEngine(t, 1, 40)
	snap, err := json.Marshal(mapSnapshot{
		Config: rl.DefaultConfig(), Actions: e.Actions.Len(),
		Q: map[rl.State][]float64{
			"0|1|0|1|0|0|1|1": make([]float64, e.Actions.Len()),
			"foreign|key":     make([]float64, e.Actions.Len()),
		},
		Visits: map[rl.State]int{"0|1|0|1|0|0|1|1": 17, "foreign|key": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.NewCheckpoint("phone-0", e.ConfigHash(), snap)
	if err != nil {
		t.Fatalf("the policy plane reads tables as data: %v", err)
	}
	env, err := policy.Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := policy.Decode(env); err != nil {
		t.Fatal(err)
	}

	names := func(err error) bool { return err != nil && strings.Contains(err.Error(), `"foreign|key"`) }
	if _, err := rl.Restore(snap, e.States); !names(err) {
		t.Fatalf("rl.Restore error = %v, want one naming the alien key", err)
	}
	before, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	agent := e.Agent()
	if err := e.RestoreQTable(snap); !names(err) {
		t.Fatalf("RestoreQTable error = %v, want one naming the alien key", err)
	}
	after, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	if e.Agent() != agent || !bytes.Equal(after, before) {
		t.Fatal("a refused restore replaced the engine's table")
	}
}
