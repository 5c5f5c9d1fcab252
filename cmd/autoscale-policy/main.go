// Command autoscale-policy is the Q-table tool. Every table it writes is a
// policy checkpoint envelope — the CRC-checked file the serving gateway's
// store writes (see internal/policy) — so one format carries the paper's
// learning-transfer workflow (Section VI-C): train a table on one device,
// carry it to another, look at what it learned. It works on standalone
// envelope files and on store directories.
//
// Usage:
//
//	autoscale-policy train -device Mi8Pro -runs 100 -o mi8pro.ckpt
//	autoscale-policy train -device GalaxyS10e -runs 20 -transfer mi8pro.ckpt -o s10e.ckpt
//	autoscale-policy show mi8pro.ckpt                 # the learned greedy policy
//	autoscale-policy show -model "ResNet 50" mi8pro.ckpt
//	autoscale-policy health mi8pro.ckpt               # coverage / visit entropy
//	autoscale-policy inspect store/Mi8Pro/gen-0000000000000002.ckpt
//	autoscale-policy inspect -store store            # every device's history
//	autoscale-policy diff a.ckpt b.ckpt              # where do the policies disagree?
//	autoscale-policy merge -o fleet.ckpt a.ckpt b.ckpt c.ckpt
//	autoscale-policy show -device Mi8Pro fleet.ckpt   # a merged envelope names no hardware
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"autoscale"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autoscale-policy:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: autoscale-policy <train|show|health|inspect|diff|merge> ...")
	}
	switch args[0] {
	case "train":
		return train(args[1:], out)
	case "show":
		return show(args[1:], out)
	case "health":
		return health(args[1:], out)
	case "inspect":
		return inspect(args[1:], out)
	case "diff":
		return diff(args[1:], out)
	case "merge":
		return merge(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (train, show, health, inspect, diff, merge)", args[0])
	}
}

// newEngine builds a fresh engine on the named device, its world and
// engine config both seeded with seed.
func newEngine(device string, seed int64) (*autoscale.Engine, error) {
	world, err := autoscale.NewWorld(device, seed)
	if err != nil {
		return nil, err
	}
	cfg := autoscale.DefaultEngineConfig()
	cfg.Seed = seed
	return autoscale.NewEngine(world, cfg)
}

// restore reads an envelope (verifying its CRC) and restores it onto a fresh
// engine for the envelope's device, or for device when set — a merged fleet
// envelope names no hardware. A table whose config hash differs from the
// engine's is refused, never restored. The engine's seed does not touch
// the restored table.
func restore(path, device string) (*autoscale.Engine, *autoscale.PolicyCheckpoint, error) {
	ck, err := autoscale.ReadPolicyCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	if device == "" {
		device = ck.Device
	}
	engine, err := newEngine(device, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w (a merged fleet envelope needs -device)", path, err)
	}
	if hash := engine.ConfigHash(); ck.ConfigHash != hash {
		return nil, nil, fmt.Errorf("%s: config hash %s differs from a %s engine's %s", path, ck.ConfigHash, device, hash)
	}
	if err := engine.RestoreQTable(ck.Snapshot); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return engine, ck, nil
}

// train runs the paper's training protocol on a device, optionally
// warm-started from a donor envelope trained on another device, and writes
// the table as an envelope.
func train(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	device := fs.String("device", autoscale.Mi8Pro, "device: Mi8Pro, GalaxyS10e, MotoXForce")
	runs := fs.Int("runs", 100, "training runs per (model, variance state)")
	transfer := fs.String("transfer", "", "warm-start from a donor envelope trained on another device")
	seed := fs.Int64("seed", 1, "random seed")
	outPath := fs.String("o", "", "output envelope file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("train needs -o OUT")
	}
	engine, err := newEngine(*device, *seed)
	if err != nil {
		return err
	}
	if *transfer != "" {
		donor, ck, err := restore(*transfer, "")
		if err != nil {
			return err
		}
		if err := engine.TransferFrom(donor); err != nil {
			return err
		}
		fmt.Fprintf(out, "transferred Q-table from %s (%d states)\n", ck.Device, donor.Agent().NumStates())
	}

	fmt.Fprintf(out, "training on %s: %d runs per (model, variance state)...\n", *device, *runs)
	if err := autoscale.Train(engine, autoscale.Models(), *runs, *seed+1); err != nil {
		return err
	}
	ck, err := autoscale.NewPolicyCheckpoint(engine, *device)
	if err != nil {
		return err
	}
	if err := autoscale.WritePolicyCheckpoint(*outPath, ck); err != nil {
		return err
	}
	ag := engine.Agent()
	fmt.Fprintf(out, "trained: %d states, %d actions, %.2f KB table\nwrote %s\n",
		ag.NumStates(), ag.NumActions(), float64(ag.MemoryBytes())/1024, *outPath)
	return nil
}

// show decodes each visited state of an envelope back into its Table I
// feature bins and prints the learned greedy policy — which execution
// target AutoScale would pick in that situation.
func show(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	device := fs.String("device", "", "device to restore onto (default: the envelope's)")
	model := fs.String("model", "", "only show states reachable by this model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show needs exactly one envelope file")
	}
	engine, ck, err := restore(fs.Arg(0), *device)
	if err != nil {
		return err
	}
	var onlyKey string
	if *model != "" {
		m, err := autoscale.Model(*model)
		if err != nil {
			return err
		}
		// The model fixes the first four feature bins of the key.
		full := string(engine.ObserveState(m, autoscale.Conditions{RSSIWLAN: -55, RSSIP2P: -55}))
		onlyKey = strings.Join(strings.Split(full, "|")[:4], "|")
	}

	printMeta(out, ck.Meta)
	ag := engine.Agent()
	fmt.Fprintf(out, "table %.1f KB\n\n%-18s %-28s %10s %8s\n",
		float64(ag.MemoryBytes())/1024, "state (Table I)", "greedy action", "Q", "visits")
	// Ascending index is ascending key order on the Table I grid.
	ag.ForEachMaterialized(func(i int32) {
		key := string(ag.KeyOf(i))
		if onlyKey != "" && !strings.HasPrefix(key, onlyKey) {
			return
		}
		best, _ := ag.BestActionIdx(i, nil) // materialized row, nil mask: cannot fail
		bestQ, _ := ag.QIdx(i, best)
		fmt.Fprintf(out, "%-18s %-28s %10.1f %8d\n",
			key, engine.Actions.Describe(best), bestQ, ag.VisitsIdx(i))
	})
	fmt.Fprintln(out, "\nkey: SCONV|SFC|SRC|SMAC|SCo_CPU|SCo_MEM|SRSSI_W|SRSSI_P (bin indices per Table I)")
	return nil
}

// health prints the learning-health view of an envelope: how much of the
// state space the policy has materialized and how its visits are spread.
func health(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("health", flag.ContinueOnError)
	device := fs.String("device", "", "device to restore onto (default: the envelope's)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("health needs exactly one envelope file")
	}
	engine, ck, err := restore(fs.Arg(0), *device)
	if err != nil {
		return err
	}
	h := engine.Health()
	fmt.Fprintf(out, "device=%s  algorithm=%s  epsilon=%.2f\n", ck.Device, h.Algorithm, h.Epsilon)
	fmt.Fprintf(out, "%-16s %d / %d states (%.2f%%)\n", "coverage", h.States, h.StateSpaceSize, 100*h.Coverage)
	fmt.Fprintf(out, "%-16s %d total, %d in the hottest state\n", "visits", h.TotalVisits, h.MaxVisits)
	fmt.Fprintf(out, "%-16s %.3f   (1.0 = uniform over visited states, 0 = one hot state)\n",
		"visit entropy", h.VisitEntropy)
	return nil
}

func printMeta(out io.Writer, m autoscale.PolicyMeta) {
	fmt.Fprintf(out, "%-24s gen %-6d config %s  actions %-4d states %-5d visits %d\n",
		m.Device, m.Generation, m.ConfigHash, m.Actions, m.States, m.TotalVisits())
	if len(m.Sources) > 0 {
		fmt.Fprintf(out, "%-24s merged from: %s\n", "", strings.Join(m.Sources, ", "))
	}
}

// inspect prints envelope metadata for files, or walks a store directory.
func inspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	storeDir := fs.String("store", "", "inspect a checkpoint store directory instead of files")
	device := fs.String("device", "", "restrict -store output to one device")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		if fs.NArg() == 0 {
			return fmt.Errorf("inspect needs envelope files or -store DIR")
		}
		for _, path := range fs.Args() {
			ck, err := autoscale.ReadPolicyCheckpoint(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s:\n  ", path)
			printMeta(out, ck.Meta)
		}
		return nil
	}

	store, err := autoscale.OpenPolicyStore(*storeDir, 0)
	if err != nil {
		return err
	}
	devices := []string{*device}
	if *device == "" {
		if devices, err = store.Devices(); err != nil {
			return err
		}
		if len(devices) == 0 {
			fmt.Fprintln(out, "store is empty")
			return nil
		}
	}
	for _, d := range devices {
		history, err := store.History(d)
		if err != nil {
			return err
		}
		if len(history) == 0 {
			return fmt.Errorf("no valid checkpoints for device %s", d)
		}
		for _, m := range history {
			printMeta(out, m)
		}
	}
	return nil
}

// diff compares two checkpoints: coverage (states known to only one side)
// and policy disagreement (shared states whose greedy action differs).
func diff(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("diff needs exactly two envelope files")
	}
	a, err := autoscale.ReadPolicyCheckpoint(args[0])
	if err != nil {
		return err
	}
	b, err := autoscale.ReadPolicyCheckpoint(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A: ")
	printMeta(out, a.Meta)
	fmt.Fprintf(out, "B: ")
	printMeta(out, b.Meta)
	if a.ConfigHash != b.ConfigHash || a.Actions != b.Actions {
		fmt.Fprintln(out, "\nincompatible tables (config hash or action space differs) — coverage only")
	}

	tblA, err := a.Table()
	if err != nil {
		return err
	}
	tblB, err := b.Table()
	if err != nil {
		return err
	}
	rowsA, rowsB := tblA.Q, tblB.Q
	var onlyA, onlyB, shared, disagree int
	var maxDelta float64
	var disagreements []string
	for s, rowA := range rowsA {
		rowB, ok := rowsB[s]
		if !ok {
			onlyA++
			continue
		}
		shared++
		if a.Actions != b.Actions {
			continue
		}
		bestA, bestB := argmax(rowA), argmax(rowB)
		for i := range rowA {
			if d := abs(rowA[i] - rowB[i]); d > maxDelta {
				maxDelta = d
			}
		}
		if bestA != bestB {
			disagree++
			disagreements = append(disagreements, fmt.Sprintf(
				"  %-20s A:action %-3d (q=%.1f)  B:action %-3d (q=%.1f)", s, bestA, rowA[bestA], bestB, rowB[bestB]))
		}
	}
	for s := range rowsB {
		if _, ok := rowsA[s]; !ok {
			onlyB++
		}
	}
	fmt.Fprintf(out, "\nstates: %d only in A, %d only in B, %d shared\n", onlyA, onlyB, shared)
	if shared > 0 && a.Actions == b.Actions {
		fmt.Fprintf(out, "greedy disagreement: %d of %d shared states, max |dQ| %.2f\n",
			disagree, shared, maxDelta)
		sort.Strings(disagreements)
		for _, line := range disagreements {
			fmt.Fprintln(out, line)
		}
	}
	return nil
}

// merge federates checkpoint files into one fleet policy envelope.
func merge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	outPath := fs.String("o", "", "output envelope file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("merge needs -o OUT")
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("merge needs at least two envelope files")
	}
	cks := make([]*autoscale.PolicyCheckpoint, 0, fs.NArg())
	for _, path := range fs.Args() {
		ck, err := autoscale.ReadPolicyCheckpoint(path)
		if err != nil {
			return err
		}
		cks = append(cks, ck)
	}
	merged, err := autoscale.MergePolicies(cks...)
	if err != nil {
		return err
	}
	if err := autoscale.WritePolicyCheckpoint(*outPath, merged); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s:\n  ", *outPath)
	printMeta(out, merged.Meta)
	return nil
}

func argmax(row []float64) int {
	best := 0
	for i, q := range row {
		if q > row[best] {
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
