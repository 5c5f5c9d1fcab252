// Translation under varying Wi-Fi: MobileBERT is far too heavy for the
// phone, so AutoScale must learn to offload — but when the Wi-Fi signal
// swings (environment D3), blind cloud offloading wastes radio energy. The
// example contrasts AutoScale with the always-cloud baseline as the signal
// drifts, the scenario behind Figs 6 and 11.
package main

import (
	"fmt"
	"log"

	"autoscale"
)

func main() {
	world, err := autoscale.NewWorld(autoscale.MotoXForce, 3)
	if err != nil {
		log.Fatal(err)
	}
	model, err := autoscale.Model("MobileBERT")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training AutoScale on the mid-end phone...")
	engine, err := autoscale.NewTrainedEngine(world, autoscale.DefaultEngineConfig(), 40, 3)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Agent().SetEpsilon(0); err != nil {
		log.Fatal(err)
	}

	qos := autoscale.QoSFor(model, autoscale.NonStreaming)
	asPolicy := autoscale.AsPolicy(engine)
	cloud := autoscale.Baselines(world, autoscale.NonStreaming)[2] // Cloud

	fmt.Printf("\ntranslating under a drifting Wi-Fi signal (QoS %.0f ms):\n\n", qos*1000)
	fmt.Printf("%-22s %-12s %10s %10s %8s\n", "policy", "signal", "avg mJ", "avg ms", "QoS-X")
	for _, scenario := range []struct {
		label string
		rssi  float64
	}{
		{"strong (-55 dBm)", -55},
		{"weak (-88 dBm)", -88},
	} {
		for _, p := range []autoscale.Policy{asPolicy, cloud} {
			var energy, latency float64
			var viol int
			const n = 200
			for i := 0; i < n; i++ {
				c := autoscale.Conditions{RSSIWLAN: scenario.rssi, RSSIP2P: -55}
				meas, err := p.RunCtx(nil, model, c)
				if err != nil {
					log.Fatal(err)
				}
				energy += meas.EnergyJ
				latency += meas.LatencyS
				if meas.LatencyS > qos {
					viol++
				}
			}
			fmt.Printf("%-22s %-12s %10.1f %10.1f %7.1f%%\n", p.Name(), scenario.label,
				energy/n*1e3, latency/n*1e3, 100*float64(viol)/n)
		}
	}
	fmt.Println("\n(MobileBERT's tiny payload keeps the cloud viable even at weak signal;")
	fmt.Println(" for camera workloads the same swing forces AutoScale back on-device.)")
}
