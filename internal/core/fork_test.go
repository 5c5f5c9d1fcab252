package core_test

import (
	"bytes"
	"math"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/exp"
	"autoscale/internal/fault"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

type request struct {
	m *dnn.Model
	c sim.Conditions
}

// requests is a fixed stream over the zoo in the dynamic D4 environment.
func requests(t *testing.T, n int) []request {
	t.Helper()
	env, err := sim.NewEnvironment(sim.EnvD4, 9)
	if err != nil {
		t.Fatal(err)
	}
	zoo := dnn.Zoo()
	out := make([]request, n)
	for i := range out {
		out[i] = request{zoo[i*7%len(zoo)], env.Sample()}
	}
	return out
}

func snapshot(t *testing.T, e *core.Engine) []byte {
	t.Helper()
	b, err := e.SnapshotQTable()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestForkContinuesBitForBit forks an engine after k steps onto a fresh copy
// of its world, then steps the fork and a twin that was never forked through
// the same n requests: every decision, reward bit, Q-table byte, health gauge
// and clock reading must agree, and stepping the fork must leave its source
// untouched. It covers both update rules, the partition action space and a
// storm-faulted world, whose fault windows key on the engine's virtual clock.
func TestForkContinuesBitForBit(t *testing.T) {
	plain := func() *sim.World { return sim.NewWorld(soc.Mi8Pro(), 3) }
	stormy := func() *sim.World {
		w := plain()
		w.Faults = fault.New(exp.DefaultStorm(), exec.NewRoot(3).Child("faults"))
		return w
	}
	cases := []struct {
		name  string
		world func() *sim.World
		tweak func(*core.Config)
	}{
		{"q-learning", plain, func(*core.Config) {}},
		{"sarsa", plain, func(c *core.Config) { c.Algorithm = core.AlgorithmSARSA }},
		{"partition", plain, func(c *core.Config) { c.PartitionActions = true }},
		{"storm", stormy, func(*core.Config) {}},
	}
	const k, n = 150, 250
	reqs := requests(t, k+n)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Seed, cfg.RL.Seed = 5, 6
			tc.tweak(&cfg)
			build := func() *core.Engine {
				e, err := core.NewEngine(tc.world(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			src, twin := build(), build()
			for _, r := range reqs[:k] {
				for _, e := range []*core.Engine{src, twin} {
					if _, err := e.RunInferenceCtx(nil, r.m, r.c); err != nil {
						t.Fatal(err)
					}
				}
			}
			fork, err := src.Fork(tc.world())
			if err != nil {
				t.Fatal(err)
			}
			srcSnap, srcNow := snapshot(t, src), src.Now()
			if !bytes.Equal(snapshot(t, fork), srcSnap) || fork.Now() != srcNow || fork.Health() != src.Health() {
				t.Fatal("fork differs from its source at the fork point")
			}
			for i, r := range reqs[k:] {
				fd, err := fork.RunInferenceCtx(nil, r.m, r.c)
				if err != nil {
					t.Fatal(err)
				}
				td, err := twin.RunInferenceCtx(nil, r.m, r.c)
				if err != nil {
					t.Fatal(err)
				}
				if fd != td || math.Float64bits(fd.Reward) != math.Float64bits(td.Reward) {
					t.Fatalf("step %d after the fork: fork %+v, twin %+v", i, fd, td)
				}
			}
			if !bytes.Equal(snapshot(t, fork), snapshot(t, twin)) {
				t.Error("fork and twin Q-tables differ")
			}
			if fork.Health() != twin.Health() || fork.Now() != twin.Now() {
				t.Errorf("health or clock differ:\nfork %+v\ntwin %+v", fork.Health(), twin.Health())
			}
			if !bytes.Equal(snapshot(t, src), srcSnap) || src.Now() != srcNow {
				t.Error("stepping the fork moved its source")
			}
		})
	}
}

// TestForkRefusesForeignActionSpace: a world whose action count differs
// from the engine's cannot take a fork.
func TestForkRefusesForeignActionSpace(t *testing.T) {
	e, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	moto := sim.NewWorld(soc.MotoXForce(), 1)
	if core.NewActionSpace(moto).Len() == e.Actions.Len() {
		t.Fatal("the two phones have equal action counts; pick another pair")
	}
	if _, err := e.Fork(moto); err == nil {
		t.Error("fork onto a world with another action count succeeded")
	}
	if _, err := e.Fork(nil); err == nil {
		t.Error("fork onto a nil world succeeded")
	}
}
