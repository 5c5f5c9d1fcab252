// Learning transfer (Section VI-C of the paper): a Q-table trained on the
// Mi8Pro is transferred to the Moto X Force, whose DVFS ladders and engine
// set differ. The example measures how many inference runs each engine needs
// before its best-Q value stabilizes — the Fig 14 experiment in miniature.
package main

import (
	"fmt"
	"log"

	"autoscale"
)

func main() {
	fmt.Println("training the donor engine on the Mi8Pro...")
	donorWorld, err := autoscale.NewWorld(autoscale.Mi8Pro, 11)
	if err != nil {
		log.Fatal(err)
	}
	donor, err := autoscale.NewTrainedEngine(donorWorld, autoscale.DefaultEngineConfig(), 40, 11)
	if err != nil {
		log.Fatal(err)
	}

	model, err := autoscale.Model("Inception v1")
	if err != nil {
		log.Fatal(err)
	}
	env, err := autoscale.NewEnvironment(autoscale.EnvS1, 11)
	if err != nil {
		log.Fatal(err)
	}

	for _, transfer := range []bool{false, true} {
		world, err := autoscale.NewWorld(autoscale.MotoXForce, 12)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := autoscale.NewEngine(world, autoscale.DefaultEngineConfig())
		if err != nil {
			log.Fatal(err)
		}
		mode := "from scratch"
		if transfer {
			if err := engine.TransferFrom(donor); err != nil {
				log.Fatal(err)
			}
			mode = "with transfer"
		}
		runs := converge(engine, model, env)
		fmt.Printf("Moto X Force %-14s converged after ~%d runs\n", mode, runs)
	}
}

// converge runs inferences until the state's best Q value stays within 5% of
// its window mean for 12 consecutive runs.
func converge(engine *autoscale.Engine, model *autoscale.DNNModel, env *autoscale.Environment) int {
	const window, tol, maxRuns = 12, 0.05, 400
	var buf []float64
	for run := 1; run <= maxRuns; run++ {
		d, err := engine.RunInferenceCtx(nil, model, env.Sample())
		if err != nil {
			log.Fatal(err)
		}
		best, err := engine.Agent().BestActionIdx(d.StateIdx, engine.Actions.Mask(model))
		if err != nil {
			log.Fatal(err)
		}
		q, _ := engine.Agent().QIdx(d.StateIdx, best)
		buf = append(buf, q)
		if len(buf) > window {
			buf = buf[len(buf)-window:]
		}
		if len(buf) == window && stable(buf, tol) {
			return run
		}
	}
	return maxRuns
}

func stable(xs []float64, tol float64) bool {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	scale := mean
	if scale < 0 {
		scale = -scale
	}
	if scale < 1e-9 {
		scale = 1e-9
	}
	for _, x := range xs {
		d := x - mean
		if d < 0 {
			d = -d
		}
		if d > tol*scale {
			return false
		}
	}
	return true
}
