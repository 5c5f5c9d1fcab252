package policy_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/policy"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// -update rewrites testdata/table_goldens.txt from this tree. The committed
// file was recorded on the commit before the agent lost its string-keyed API
// (dense index everywhere, rl.Table as the only string boundary); run it
// again only when snapshot or envelope bytes are meant to move, and say so in
// CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/table_goldens.txt from this tree")

// goldenEngine trains a Mi 8 Pro engine over the zoo under the D4 environment
// with every seed fixed, so its Q-table is a pure function of (seed, runs).
func goldenEngine(t *testing.T, seed int64, runs int) *core.Engine {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.RL.Seed = seed, seed
	e, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenTrain(t, e, seed, runs)
	return e
}

func goldenTrain(t *testing.T, e *core.Engine, seed int64, runs int) {
	t.Helper()
	env, err := sim.NewEnvironment(sim.EnvD4, seed)
	if err != nil {
		t.Fatal(err)
	}
	zoo := dnn.Zoo()
	for i := 0; i < runs; i++ {
		if _, err := e.RunInferenceCtx(nil, zoo[i%len(zoo)], env.Sample()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTableGoldens pins the byte contracts of the Q-table's string boundary
// against digests recorded on the parent commit: the snapshot of a fixed-seed
// trained engine, its restore→snapshot round trip on a fresh engine, the
// envelope (CRC included) of a two-device federated merge, and a fully mapped
// transfer (donor Mi 8 Pro, every Moto X Force action has a counterpart)
// followed by 200 learning steps — which also pins where the transfer left
// the recipient's RNG.
func TestTableGoldens(t *testing.T) {
	const file = "testdata/table_goldens.txt"
	a, b := goldenEngine(t, 1, 600), goldenEngine(t, 2, 400)
	snapA, err := a.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := b.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}

	fresh := goldenEngine(t, 3, 0)
	if err := fresh.RestoreQTable(snapA); err != nil {
		t.Fatal(err)
	}
	round, err := fresh.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}

	ckA, err := policy.NewCheckpoint("phone-a", a.ConfigHash(), snapA)
	if err != nil {
		t.Fatal(err)
	}
	ckB, err := policy.NewCheckpoint("phone-b", b.ConfigHash(), snapB)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := policy.Merge([]*policy.Checkpoint{ckA, ckB})
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := policy.Encode(merged)
	if err != nil {
		t.Fatal(err)
	}

	moto, err := core.NewEngine(sim.NewWorld(soc.MotoXForce(), 4), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := moto.TransferFrom(a); err != nil {
		t.Fatal(err)
	}
	goldenTrain(t, moto, 4, 200)
	transferred, err := moto.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}

	var got string
	for _, g := range []struct {
		name string
		data []byte
	}{{"snapshot", snapA}, {"roundtrip", round}, {"merge", envelope}, {"transfer", transferred}} {
		got += fmt.Sprintf("%s\t%d\t%x\n", g.name, len(g.data), sha256.Sum256(g.data))
	}
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("table bytes moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
