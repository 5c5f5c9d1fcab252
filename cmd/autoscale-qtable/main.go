// Command autoscale-qtable inspects a trained Q-table: it loads a snapshot
// written by autoscale-train (or trains one in place), decodes each visited
// state back into its Table I feature bins and prints the learned greedy
// policy — which execution target AutoScale would pick in that situation.
//
// Snapshots come in two formats: the policy-plane checkpoint envelope
// (written by the serving gateway's store and by autoscale-policy) — whose
// generation, device and config-hash metadata are printed and whose CRC is
// verified — and the legacy raw JSON snapshot of autoscale-train. Truncated
// or corrupt files of either format are rejected loudly, never half-loaded.
//
// The "health" subcommand prints the learning-health summary of a checkpoint
// instead of the full policy: Q-table coverage of the discrete state space,
// the normalized entropy of the visit distribution (1.0 = uniform
// exploration, 0 = a single hot state) and the visit totals.
//
// Usage:
//
//	autoscale-qtable -device Mi8Pro -in mi8pro.qtable
//	autoscale-qtable -device Mi8Pro -in store/Mi8Pro/gen-0000000000000003.ckpt
//	autoscale-qtable -device Mi8Pro -train 60            # train then inspect
//	autoscale-qtable -device Mi8Pro -in t.qtable -model "ResNet 50"
//	autoscale-qtable health -device Mi8Pro -in t.qtable  # coverage/entropy
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"autoscale"
)

func main() {
	args := os.Args[1:]
	health := len(args) > 0 && args[0] == "health"
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		device = fs.String("device", autoscale.Mi8Pro, "device: Mi8Pro, GalaxyS10e, MotoXForce")
		in     = fs.String("in", "", "Q-table snapshot to load (from autoscale-train)")
		train  = fs.Int("train", 0, "train in place with this many runs per (model, variance state)")
		model  = fs.String("model", "", "only show states reachable by this model")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	if health {
		args = args[1:]
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError

	var err error
	if health {
		err = runHealth(os.Stdout, *device, *in, *train, *seed)
	} else {
		err = run(*device, *in, *model, *train, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoscale-qtable:", err)
		os.Exit(1)
	}
}

// buildEngine provisions the engine under inspection: fresh plus a loaded
// snapshot, or trained in place.
func buildEngine(device, inPath string, train int, seed int64) (*autoscale.Engine, error) {
	world, err := autoscale.NewWorld(device, seed)
	if err != nil {
		return nil, err
	}
	cfg := autoscale.DefaultEngineConfig()
	cfg.Seed = seed
	switch {
	case inPath != "":
		engine, err := autoscale.NewEngine(world, cfg)
		if err != nil {
			return nil, err
		}
		if err := loadSnapshot(engine, inPath); err != nil {
			return nil, err
		}
		return engine, nil
	case train > 0:
		return autoscale.NewTrainedEngine(world, cfg, train, seed)
	}
	return nil, fmt.Errorf("provide -in <snapshot> or -train <runs>")
}

// runHealth prints the learning-health view of a snapshot: how much of the
// state space the policy has materialized and how its visits are spread.
func runHealth(out io.Writer, device, inPath string, train int, seed int64) error {
	engine, err := buildEngine(device, inPath, train, seed)
	if err != nil {
		return err
	}
	h := engine.Health()
	frozen := ""
	if h.Frozen {
		frozen = "  (frozen)"
	}
	fmt.Fprintf(out, "device=%s  algorithm=%s  epsilon=%.2f%s\n", device, h.Algorithm, h.Epsilon, frozen)
	fmt.Fprintf(out, "%-16s %d / %d states (%.2f%%)\n", "coverage", h.States, h.StateSpaceSize, 100*h.Coverage)
	fmt.Fprintf(out, "%-16s %d total, %d in the hottest state\n", "visits", h.TotalVisits, h.MaxVisits)
	fmt.Fprintf(out, "%-16s %.3f   (1.0 = uniform over visited states, 0 = one hot state)\n",
		"visit entropy", h.VisitEntropy)
	if h.Selections > 0 {
		// Runtime-only counters: populated when the table was trained in this
		// process, absent from a loaded checkpoint.
		fmt.Fprintf(out, "%-16s %.1f%% of %d selections\n", "explored", 100*h.ExplorationRatio, h.Selections)
		fmt.Fprintf(out, "%-16s %.4f over %d updates\n", "TD-error EMA", h.TDErrorEMA, h.TDSamples)
	}
	return nil
}

func run(device, inPath, modelName string, train int, seed int64) error {
	engine, err := buildEngine(device, inPath, train, seed)
	if err != nil {
		return err
	}

	ag := engine.Agent()
	fmt.Printf("device=%s  states=%d  actions=%d  table=%.1f KB\n\n",
		device, ag.NumStates(), ag.NumActions(), float64(ag.MemoryBytes())/1024)

	var onlyKey string
	if modelName != "" {
		m, err := autoscale.Model(modelName)
		if err != nil {
			return err
		}
		// The model fixes the first four feature bins of the key.
		full := string(engine.ObserveState(m, autoscale.Conditions{RSSIWLAN: -55, RSSIP2P: -55}))
		onlyKey = strings.Join(strings.Split(full, "|")[:4], "|")
	}

	fmt.Printf("%-18s %-28s %10s %8s\n",
		"state (Table I)", "greedy action", "Q", "visits")
	// Ascending index is ascending key order on the Table I grid.
	ag.ForEachMaterialized(func(i int32) {
		key := string(ag.KeyOf(i))
		if onlyKey != "" && !strings.HasPrefix(key, onlyKey) {
			return
		}
		best, _ := ag.BestActionIdx(i, nil) // materialized row, nil mask: cannot fail
		bestQ, _ := ag.QIdx(i, best)
		fmt.Printf("%-18s %-28s %10.1f %8d\n",
			key, engine.Actions.Describe(best), bestQ, ag.VisitsIdx(i))
	})
	fmt.Println("\nkey: SCONV|SFC|SRC|SMAC|SCo_CPU|SCo_MEM|SRSSI_W|SRSSI_P (bin indices per Table I)")
	return nil
}

// loadSnapshot restores an engine from either snapshot format. Checkpoint
// envelopes get their metadata printed and CRC verified; legacy raw
// snapshots are validated strictly — an empty or truncated file is an
// error, not an empty table.
func loadSnapshot(engine *autoscale.Engine, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("load snapshot: %w", err)
	}
	if len(data) == 0 {
		return fmt.Errorf("load snapshot: %s is empty (truncated write?)", path)
	}
	ck, err := autoscale.DecodePolicyCheckpoint(data)
	switch {
	case err == nil:
		fmt.Printf("checkpoint envelope: device=%s generation=%d config=%s states=%d visits=%d\n",
			ck.Device, ck.Generation, ck.ConfigHash, ck.States, ck.Meta.TotalVisits())
		if hash := engine.ConfigHash(); ck.ConfigHash != hash {
			fmt.Printf("warning: checkpoint config hash %s differs from this engine's %s\n",
				ck.ConfigHash, hash)
		}
		if len(ck.Sources) > 0 {
			fmt.Printf("merged from: %s\n", strings.Join(ck.Sources, ", "))
		}
		fmt.Println()
		return engine.RestoreQTable(ck.Snapshot)
	case errors.Is(err, autoscale.ErrPolicyNotEnvelope):
		// Legacy raw rl snapshot; RestoreQTable fails loudly on malformed
		// or cut-off JSON.
		if err := engine.RestoreQTable(data); err != nil {
			return fmt.Errorf("load snapshot %s: %w", path, err)
		}
		return nil
	default:
		return fmt.Errorf("load snapshot %s: %w", path, err)
	}
}
