// Fleet operations: train one donor Q-table on a reference device, provision
// warm-started engines across a heterogeneous fleet (the paper's learning
// transfer, Section VI-C), serve traffic with decision tracing on, and audit
// the resulting logs — the workflow an operator of many AutoScale-scheduled
// devices would run.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"autoscale"
)

func main() {
	cfg := autoscale.DefaultEngineConfig()

	fmt.Println("training the donor on the Mi8Pro (reference device)...")
	fleet, err := autoscale.NewFleet(autoscale.Mi8Pro, cfg, 60, 31)
	if err != nil {
		log.Fatal(err)
	}

	model, err := autoscale.Model("Inception v1")
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "autoscale-fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	for _, device := range autoscale.DeviceNames()[1:] { // the non-donor phones
		engine, err := fleet.Provision(device, cfg, 32)
		if err != nil {
			log.Fatal(err)
		}

		path := filepath.Join(dir, device+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		writer := autoscale.NewTraceWriter(f)
		policy := autoscale.TracedPolicy(engine, writer)

		env, err := autoscale.NewEnvironment(autoscale.EnvD2, 32)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, err := policy.RunCtx(nil, model, env.Sample()); err != nil {
				log.Fatal(err)
			}
		}
		if err := writer.Flush(); err != nil {
			log.Fatal(err)
		}
		f.Close()

		// Audit the log offline.
		in, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		records, err := autoscale.ReadTrace(in)
		in.Close()
		if err != nil {
			log.Fatal(err)
		}
		sum := autoscale.SummarizeTrace(records)
		fmt.Printf("\n%s: %d decisions, %.1f J total, %.1f ms mean latency, %.1f%% QoS misses\n",
			device, sum.Records, sum.TotalEnergyJ, sum.MeanLatencyS*1e3, sum.ViolationRatio*100)
		var locs []string
		for loc := range sum.ByLocation {
			locs = append(locs, loc)
		}
		sort.Strings(locs)
		for _, loc := range locs {
			fmt.Printf("  %-10s %5.1f%%\n", loc, sum.ByLocation[loc]*100)
		}
	}
}
