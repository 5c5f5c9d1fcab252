// Quickstart: build the simulated edge-cloud world around a phone, create an
// AutoScale engine, and watch it learn where to run MobileNet v3 inference
// while a web browser co-runs (environment D2 of the paper).
package main

import (
	"fmt"
	"log"

	"autoscale"
)

func main() {
	world, err := autoscale.NewWorld(autoscale.Mi8Pro, 1)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := autoscale.NewEngine(world, autoscale.DefaultEngineConfig())
	if err != nil {
		log.Fatal(err)
	}
	env, err := autoscale.NewEnvironment(autoscale.EnvD2, 1)
	if err != nil {
		log.Fatal(err)
	}
	model, err := autoscale.Model("MobileNet v3")
	if err != nil {
		log.Fatal(err)
	}

	qos := autoscale.QoSFor(model, autoscale.NonStreaming)
	fmt.Printf("learning to schedule %s (QoS %.0f ms) on %s with a browser co-running\n\n",
		model.Name, qos*1000, world.Device.Name)

	var energy10 float64
	for i := 1; i <= 200; i++ {
		d, err := engine.RunInferenceCtx(nil, model, env.Sample())
		if err != nil {
			log.Fatal(err)
		}
		energy10 += d.Measurement.EnergyJ
		if i%10 == 0 {
			fmt.Printf("run %3d: last target %-22s avg energy %6.1f mJ (last 10)\n",
				i, d.Target, energy10/10*1e3)
			energy10 = 0
		}
	}

	// After learning, query the greedy decision for a calm moment and a
	// heavily loaded one.
	calm := autoscale.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	tgt, err := engine.Predict(model, calm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncalm conditions      -> %s\n", tgt)
	loaded := calm
	loaded.Load.CPUUtil, loaded.Load.MemUtil = 0.85, 0.2
	tgt, err = engine.Predict(model, loaded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPU-hog interference -> %s\n", tgt)
}
