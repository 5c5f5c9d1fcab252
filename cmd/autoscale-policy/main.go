// Command autoscale-policy operates on policy-plane checkpoints — the
// durable Q-table envelopes the serving gateway's store writes (see
// internal/policy). It works on standalone envelope files and on store
// directories.
//
// Usage:
//
//	autoscale-policy inspect store/Mi8Pro/gen-0000000000000002.ckpt
//	autoscale-policy inspect -store store            # every device's history
//	autoscale-policy diff a.ckpt b.ckpt              # where do the policies disagree?
//	autoscale-policy merge -o fleet.ckpt a.ckpt b.ckpt c.ckpt
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
		return fmt.Errorf("usage: autoscale-policy <inspect|diff|merge> ...")
	}
	switch args[0] {
	case "inspect":
		return inspect(args[1:], out)
	case "diff":
		return diff(args[1:], out)
	case "merge":
		return merge(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (inspect, diff, merge)", args[0])
	}
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
