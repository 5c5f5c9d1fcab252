package exp

import (
	"bytes"
	"testing"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// familyConfigs are the engine configurations whose families the tests
// train: both update rules and the partition action space.
func familyConfigs() map[string]core.Config {
	q := core.DefaultConfig()
	q.Seed, q.RL.Seed = 4, 5
	sarsa, part := q, q
	sarsa.Algorithm = core.AlgorithmSARSA
	part.PartitionActions = true
	return map[string]core.Config{"q-learning": q, "sarsa": sarsa, "partition": part}
}

func familyTrainConfig() TrainConfig {
	zoo := dnn.Zoo()
	return TrainConfig{
		Models:       []*dnn.Model{zoo[0], zoo[3], zoo[6], dnn.MustByName("MobileBERT")},
		RunsPerState: 2,
		Intensity:    sim.Streaming,
		Accuracy:     50,
		Seed:         6,
	}
}

func snapshotOf(t *testing.T, e *core.Engine) []byte {
	t.Helper()
	b, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameTrained fails the test unless a and b hold the same table and stand at
// the same step, virtual time and health.
func sameTrained(t *testing.T, what string, a, b *core.Engine) {
	t.Helper()
	if !bytes.Equal(snapshotOf(t, a), snapshotOf(t, b)) {
		t.Errorf("%s: Q-tables differ", what)
	}
	if a.Now() != b.Now() || a.Health() != b.Health() {
		t.Errorf("%s: clock or health differ: %v/%+v vs %v/%+v", what, a.Now(), a.Health(), b.Now(), b.Health())
	}
}

// TestFamilyMatchesPerModelTraining: every engine of a family trained as a
// prefix tree equals NewTrainedEngine on the other models, and the engine
// for a model outside the set equals NewTrainedEngine on all of them.
func TestFamilyMatchesPerModelTraining(t *testing.T) {
	tcfg := familyTrainConfig()
	for name, cfg := range familyConfigs() {
		fam, err := trainFamily(sim.NewWorld(soc.Mi8Pro(), 1), cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := -1; k < len(tcfg.Models); k++ {
			ref := tcfg
			ref.Models = nil
			for i, m := range tcfg.Models {
				if i != k {
					ref.Models = append(ref.Models, m)
				}
			}
			want, err := NewTrainedEngine(sim.NewWorld(soc.Mi8Pro(), 1), cfg, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fam.engineOn(sim.NewWorld(soc.Mi8Pro(), 1), k)
			if err != nil {
				t.Fatal(err)
			}
			sameTrained(t, name+" holding out "+heldName(tcfg, k), got, want)
			if k >= 0 {
				sameTrained(t, name+" family leaf "+heldName(tcfg, k), fam.leaves[k], want)
			}
		}
	}
}

func heldName(tcfg TrainConfig, k int) string {
	if k < 0 {
		return "none"
	}
	return tcfg.Models[k].Name
}

// TestFamilyIgnoresWorldSeed: training draws only from the engine's and the
// conditions' streams, so a family trained on one seed's world equals one
// trained on another's. This is why the memo key leaves the seed out.
func TestFamilyIgnoresWorldSeed(t *testing.T) {
	tcfg := familyTrainConfig()
	for name, cfg := range familyConfigs() {
		a, err := trainFamily(sim.NewWorld(soc.GalaxyS10e(), 1), cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := trainFamily(sim.NewWorld(soc.GalaxyS10e(), 2), cfg, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range tcfg.Models {
			sameTrained(t, name+" holding out "+heldName(tcfg, k), a.leaves[k], b.leaves[k])
		}
		sameTrained(t, name+" chain", a.chain, b.chain)
	}
}

// TestRunAllSharesFamilies: experiments that need the same families share
// them within a pass — each distinct family trained once — and still render
// the bytes a lone Run at Parallel 1 renders. fig11, fig12's "none" row and
// fig13 all take fig9's non-streaming families. Time a cell spends waiting
// on another cell's family is not busy time, so the pass's busy ratio stays
// at most 1.
func TestRunAllSharesFamilies(t *testing.T) {
	micro := Options{Seed: 11, Runs: 3, TrainRuns: 2, Warmup: 2}
	ids := []string{"fig9", "fig11", "fig12", "fig13"}
	alone := map[string]int{"fig9": 3, "fig11": 1, "fig12": 4, "fig13": 3}
	want := make(map[string]string)
	for _, id := range ids {
		o := micro
		o.Parallel = 1
		o = o.withDefaults()
		tab, err := Run(id, o)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = tab.String()
		if got := o.pool.families.trained; got != alone[id] {
			t.Errorf("%s alone trained %d families, want %d", id, got, alone[id])
		}
	}

	o := micro
	o.Parallel = 4
	o = o.withDefaults()
	start := time.Now()
	outs := RunAll(ids, o)
	wall := time.Since(start)
	var busy time.Duration
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("%s: %v", out.ID, out.Err)
		}
		if got := out.Table.String(); got != want[out.ID] {
			t.Errorf("%s differs between RunAll at Parallel 4 and Run at Parallel 1:\n%s\nvs\n%s", out.ID, got, want[out.ID])
		}
		busy += out.Elapsed
	}
	// Three devices for fig9 (shared by fig11, fig12's "none" and fig13),
	// plus fig12's three accuracy targets.
	if got := o.pool.families.trained; got != 6 {
		t.Errorf("the pass trained %d families, want 6", got)
	}
	if ratio := busy.Seconds() / (wall.Seconds() * float64(o.Parallel)); ratio > 1 {
		t.Errorf("busy ratio %.3f > 1: busy %v over %v at Parallel %d", ratio, busy, wall, o.Parallel)
	}
}

// BenchmarkFigsPass runs one quick-fidelity RunAll over the eight
// experiments the benchmark's exp_figs workload regenerates, on one worker so
// a CPU profile (`make profile-figs`) attributes the pass without pool
// scheduling in it. Iterations cycle through four seeds.
func BenchmarkFigsPass(b *testing.B) {
	ids := []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ext-faults", "ext-plan"}
	for i := 0; i < b.N; i++ {
		o := Quick(42 + int64(i%4))
		o.Parallel = 1
		for _, out := range RunAll(ids, o) {
			if out.Err != nil {
				b.Fatalf("%s: %v", out.ID, out.Err)
			}
		}
	}
}
