// Streaming object detection: an SSD MobileNet model must hold a 30 FPS
// frame budget (33.3 ms) while the co-running app mix changes (environment
// D4). The example trains AutoScale offline, then streams 600 frames and
// compares its energy and QoS violations with the Edge (CPU FP32) baseline
// and the Opt oracle — the per-frame view of Fig 10.
package main

import (
	"fmt"
	"log"

	"autoscale"
)

func main() {
	world, err := autoscale.NewWorld(autoscale.GalaxyS10e, 7)
	if err != nil {
		log.Fatal(err)
	}
	model, err := autoscale.Model("SSD MobileNet v2")
	if err != nil {
		log.Fatal(err)
	}
	cfg := autoscale.DefaultEngineConfig()
	cfg.Intensity = autoscale.Streaming

	fmt.Println("training AutoScale for the streaming scenario...")
	engine, err := autoscale.NewTrainedEngine(world, cfg, 40, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Agent().SetEpsilon(0); err != nil {
		log.Fatal(err)
	}

	policies := []autoscale.Policy{
		autoscale.AsPolicy(engine),
		autoscale.Baselines(world, autoscale.Streaming)[0], // Edge (CPU FP32)
		autoscale.Opt(world, autoscale.Streaming),
	}
	qos := autoscale.QoSFor(model, autoscale.Streaming)
	const frames = 600

	fmt.Printf("\nstreaming %d frames of %s (budget %.1f ms):\n\n", frames, model.Name, qos*1000)
	fmt.Printf("%-16s %12s %12s %10s\n", "policy", "avg mJ/frame", "avg ms", "dropped")
	for _, p := range policies {
		env, err := autoscale.NewEnvironment(autoscale.EnvD4, 7)
		if err != nil {
			log.Fatal(err)
		}
		var energy, latency float64
		var dropped int
		for f := 0; f < frames; f++ {
			meas, err := p.RunCtx(nil, model, env.Sample())
			if err != nil {
				log.Fatal(err)
			}
			energy += meas.EnergyJ
			latency += meas.LatencyS
			if meas.LatencyS > qos {
				dropped++
			}
		}
		fmt.Printf("%-16s %12.1f %12.1f %9.1f%%\n", p.Name(),
			energy/frames*1e3, latency/frames*1e3, 100*float64(dropped)/frames)
	}
}
