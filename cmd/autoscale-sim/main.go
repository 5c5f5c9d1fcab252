// Command autoscale-sim runs inference scenarios on the simulated edge-cloud
// testbed under a chosen scheduling policy and reports energy efficiency,
// latency, QoS violations and the decision breakdown.
//
// Usage:
//
//	autoscale-sim -device Mi8Pro -model "MobileNet v3" -env D2 -n 500
//	autoscale-sim -device MotoXForce -policy opt -env S4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autoscale"
)

func main() {
	var (
		device  = flag.String("device", autoscale.Mi8Pro, "device: Mi8Pro, GalaxyS10e, MotoXForce")
		model   = flag.String("model", "", "model name (default: all ten zoo networks)")
		envID   = flag.String("env", autoscale.EnvS1, "environment: S1-S5, D1-D4")
		policy  = flag.String("policy", "autoscale", "policy: autoscale, opt, edge-cpu, edge-best, cloud, connected, mosaic, neurosurgeon")
		n       = flag.Int("n", 300, "inferences per model")
		train   = flag.Int("train", 60, "AutoScale training runs per (model, variance state)")
		stream  = flag.Bool("streaming", false, "streaming (30 FPS) instead of non-streaming scenario")
		seed    = flag.Int64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print every decision")
		tracef  = flag.String("trace", "", "write a JSON-Lines decision trace (autoscale policy only)")
	)
	flag.Parse()

	if err := run(*device, *model, *envID, *policy, *n, *train, *stream, *seed, *verbose, *tracef); err != nil {
		fmt.Fprintln(os.Stderr, "autoscale-sim:", err)
		os.Exit(1)
	}
}

func run(device, modelName, envID, policyName string, n, train int, streaming bool, seed int64, verbose bool, tracePath string) error {
	world, err := autoscale.NewWorld(device, seed)
	if err != nil {
		return err
	}
	intensity := autoscale.NonStreaming
	if streaming {
		intensity = autoscale.Streaming
	}

	models := autoscale.Models()
	if modelName != "" {
		m, err := autoscale.Model(modelName)
		if err != nil {
			return err
		}
		models = []*autoscale.DNNModel{m}
	}

	pol, tracedEngine, err := buildPolicyEngine(world, policyName, intensity, train, seed)
	if err != nil {
		return err
	}

	var traceW *autoscale.TraceWriter
	if tracePath != "" {
		if policyName != "autoscale" {
			return fmt.Errorf("-trace requires -policy autoscale")
		}
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		traceW = autoscale.NewTraceWriter(f)
		defer traceW.Flush()
		pol = autoscale.TracedPolicy(tracedEngine, traceW)
	}

	env, err := autoscale.NewEnvironment(envID, seed)
	if err != nil {
		return err
	}

	fmt.Printf("device=%s env=%s policy=%s intensity=%s\n\n", device, env, pol.Name(), intensity)
	fmt.Printf("%-20s %10s %10s %8s  %s\n", "model", "avg mJ", "avg ms", "QoS-X", "decisions")
	for _, m := range models {
		qos := autoscale.QoSFor(m, intensity)
		var energy, latency float64
		var viol int
		locs := map[string]int{}
		for i := 0; i < n; i++ {
			meas, err := pol.RunCtx(nil, m, env.Sample())
			if err != nil {
				return fmt.Errorf("%s: %w", m.Name, err)
			}
			energy += meas.EnergyJ
			latency += meas.LatencyS
			if meas.LatencyS > qos {
				viol++
			}
			locs[meas.Target.Location.String()]++
			if verbose {
				fmt.Printf("  %-20s -> %-24s %6.1fms %7.1fmJ\n",
					m.Name, meas.Target, meas.LatencyS*1e3, meas.EnergyJ*1e3)
			}
		}
		var parts []string
		for _, loc := range []string{"local", "connected", "cloud"} {
			if locs[loc] > 0 {
				parts = append(parts, fmt.Sprintf("%s %.0f%%", loc, 100*float64(locs[loc])/float64(n)))
			}
		}
		fmt.Printf("%-20s %10.1f %10.1f %7.1f%%  %s\n",
			m.Name, energy/float64(n)*1e3, latency/float64(n)*1e3,
			100*float64(viol)/float64(n), strings.Join(parts, ", "))
	}
	return nil
}

func buildPolicy(w *autoscale.World, name string, intensity autoscale.Intensity, train int, seed int64) (autoscale.Policy, error) {
	p, _, err := buildPolicyEngine(w, name, intensity, train, seed)
	return p, err
}

func buildPolicyEngine(w *autoscale.World, name string, intensity autoscale.Intensity, train int, seed int64) (autoscale.Policy, *autoscale.Engine, error) {
	switch name {
	case "autoscale":
		cfg := autoscale.DefaultEngineConfig()
		cfg.Intensity = intensity
		cfg.Seed = seed
		engine, err := autoscale.NewTrainedEngine(w, cfg, train, seed)
		if err != nil {
			return nil, nil, err
		}
		if err := engine.Agent().SetEpsilon(0); err != nil {
			return nil, nil, err
		}
		return autoscale.AsPolicy(engine), engine, nil
	case "opt":
		return autoscale.Opt(w, intensity), nil, nil
	}
	want := canonical(name)
	if want == "connected" {
		want = "connectededge"
	}
	for _, p := range append(autoscale.Baselines(w, intensity), autoscale.PriorWork(w, intensity)...) {
		if canonical(p.Name()) == want {
			return p, nil, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown policy %q", name)
}

func canonical(s string) string {
	s = strings.ToLower(s)
	for _, cut := range []string{" ", "(", ")", "-", "fp32"} {
		s = strings.ReplaceAll(s, cut, "")
	}
	return s
}
