// Command autoscale-train trains an AutoScale Q-table on a device, saves or
// loads it, and optionally transfers a table trained on one device to
// another (the paper's learning-transfer experiment).
//
// Usage:
//
//	autoscale-train -device Mi8Pro -runs 100 -o mi8pro.qtable
//	autoscale-train -device GalaxyS10e -transfer mi8pro.qtable -runs 20 -o s10e.qtable
package main

import (
	"flag"
	"fmt"
	"os"

	"autoscale"
)

func main() {
	var (
		device   = flag.String("device", autoscale.Mi8Pro, "device: Mi8Pro, GalaxyS10e, MotoXForce")
		runs     = flag.Int("runs", 100, "training runs per (model, variance state)")
		out      = flag.String("o", "", "path to write the trained Q-table (JSON)")
		transfer = flag.String("transfer", "", "warm-start from a Q-table trained on another device")
		donorDev = flag.String("donor-device", autoscale.Mi8Pro, "device the transferred table was trained on")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := run(*device, *donorDev, *transfer, *out, *runs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "autoscale-train:", err)
		os.Exit(1)
	}
}

func run(device, donorDevice, transferPath, outPath string, runs int, seed int64) error {
	world, err := autoscale.NewWorld(device, seed)
	if err != nil {
		return err
	}
	cfg := autoscale.DefaultEngineConfig()
	cfg.Seed = seed
	engine, err := autoscale.NewEngine(world, cfg)
	if err != nil {
		return err
	}

	if transferPath != "" {
		donorWorld, err := autoscale.NewWorld(donorDevice, seed)
		if err != nil {
			return err
		}
		donor, err := autoscale.NewEngine(donorWorld, cfg)
		if err != nil {
			return err
		}
		if err := autoscale.LoadQTable(donor, transferPath); err != nil {
			return err
		}
		if err := engine.TransferFrom(donor); err != nil {
			return err
		}
		fmt.Printf("transferred Q-table from %s (%d states)\n", donorDevice, donor.Agent().NumStates())
	}

	fmt.Printf("training on %s: %d runs per (model, variance state)...\n", device, runs)
	if err := autoscale.Train(engine, autoscale.Models(), runs, seed+1); err != nil {
		return err
	}
	ag := engine.Agent()
	fmt.Printf("trained: %d states, %d actions, %.2f KB table\n",
		ag.NumStates(), ag.NumActions(), float64(ag.MemoryBytes())/1024)

	if outPath != "" {
		if err := autoscale.SaveQTable(engine, outPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}
