// A day in the life of a battery: four usage sessions — a morning photo
// burst, a commute with streaming object detection, an afternoon of
// translation while browsing, an evening video session — replayed under
// three schedulers. The example translates the per-inference joules of the
// simulator into battery drain (3000 mAh at 3.85 V, roughly the paper's
// mid-range phones) and shows why the paper optimizes energy at all.
package main

import (
	"fmt"
	"log"

	"autoscale"
)

type session struct {
	label     string
	model     string
	env       string
	intensity autoscale.Intensity
	requests  int
}

var day = []session{
	{"morning photos", "Inception v1", autoscale.EnvD1, autoscale.NonStreaming, 150},
	{"commute detection", "SSD MobileNet v2", autoscale.EnvD3, autoscale.Streaming, 900},
	{"afternoon translate", "MobileBERT", autoscale.EnvD2, autoscale.NonStreaming, 120},
	{"evening video", "MobileNet v1", autoscale.EnvD4, autoscale.Streaming, 900},
}

func main() {
	world, err := autoscale.NewWorld(autoscale.GalaxyS10e, 21)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training AutoScale...")
	cfg := autoscale.DefaultEngineConfig()
	engine, err := autoscale.NewTrainedEngine(world, cfg, 40, 21)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Agent().SetEpsilon(0); err != nil {
		log.Fatal(err)
	}

	policies := []autoscale.Policy{
		autoscale.AsPolicy(engine),
		autoscale.Baselines(world, autoscale.NonStreaming)[0], // Edge (CPU FP32)
		autoscale.Baselines(world, autoscale.NonStreaming)[2], // Cloud
	}

	fmt.Printf("\n%-16s", "session")
	for _, p := range policies {
		fmt.Printf(" %16s", p.Name())
	}
	fmt.Println()

	totals := make([]float64, len(policies))
	for _, s := range day {
		model, err := autoscale.Model(s.model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s", s.label)
		for i, p := range policies {
			env, err := autoscale.NewEnvironment(s.env, 21)
			if err != nil {
				log.Fatal(err)
			}
			var joules float64
			for r := 0; r < s.requests; r++ {
				meas, err := p.RunCtx(nil, model, env.Sample())
				if err != nil {
					log.Fatalf("%s: %v", p.Name(), err)
				}
				joules += meas.EnergyJ
			}
			totals[i] += joules
			fmt.Printf(" %13.1f J", joules)
		}
		fmt.Println()
	}

	fmt.Printf("\n%-16s", "TOTAL")
	for _, j := range totals {
		fmt.Printf(" %13.1f J", j)
	}
	fmt.Println()

	// Translate into battery terms.
	fmt.Println()
	for i, p := range policies {
		b, err := autoscale.NewBattery(3000, 3.85)
		if err != nil {
			log.Fatal(err)
		}
		_ = b.Drain(totals[i])
		daysOfInference := 1e9
		if totals[i] > 0 {
			daysOfInference = b.CapacityJ() / totals[i]
		}
		fmt.Printf("%-16s leaves the phone at %4.1f%%  (~%.0f such days per charge)\n",
			p.Name(), b.SoC()*100, daysOfInference)
	}
}
