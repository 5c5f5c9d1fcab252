package core

import (
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// TestConditionsIndependentOfActions pins the premise behind reading the
// experiments as a contextual bandit: the next state S′ does not depend on
// the action A. Two engines that differ only in their exploration seed are
// driven the way the exp harness drives one — each run draws the next
// Conditions from a Table IV environment and steps the engine on it — over
// one environment seed. They must take different actions and still observe
// the same Conditions and the same Q-state at every step. Dynamics that let
// an action shape what later steps observe (thermal coupling, say) fail
// this test, and with it the explanation that the bootstrap term μ·max Q(S′)
// cannot move the argmax.
func TestConditionsIndependentOfActions(t *testing.T) {
	const seed, runs = 7, 300
	models := []*dnn.Model{dnn.MustByName("MobileNet v3"), dnn.MustByName("Inception v1")}
	for _, envID := range []string{sim.EnvS2, sim.EnvD1, sim.EnvD2, sim.EnvD3, sim.EnvD4} {
		type trajectory struct {
			conds   []sim.Conditions
			states  []string
			actions []int
		}
		walk := func(exploreSeed int64) trajectory {
			cfg := DefaultConfig()
			cfg.RL.Seed = exploreSeed
			e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), seed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			env, err := sim.NewEnvironment(envID, seed)
			if err != nil {
				t.Fatal(err)
			}
			var tr trajectory
			for i := 0; i < runs; i++ {
				c := env.Sample()
				d, err := e.RunInferenceCtx(nil, models[i%len(models)], c)
				if err != nil {
					t.Fatal(err)
				}
				tr.conds = append(tr.conds, c)
				tr.states = append(tr.states, string(d.State))
				tr.actions = append(tr.actions, d.ActionIndex)
			}
			return tr
		}
		a, b := walk(1), walk(2)
		differ := 0
		for i := 0; i < runs; i++ {
			if a.conds[i] != b.conds[i] {
				t.Fatalf("%s run %d: conditions %+v vs %+v under different exploration", envID, i, a.conds[i], b.conds[i])
			}
			if a.states[i] != b.states[i] {
				t.Fatalf("%s run %d: observed state %s vs %s under different exploration", envID, i, a.states[i], b.states[i])
			}
			if a.actions[i] != b.actions[i] {
				differ++
			}
		}
		if differ == 0 {
			t.Fatalf("%s: the two exploration seeds took identical actions; the test shows nothing", envID)
		}
	}
}
