// Command bench is the repository's benchmark: six workloads from one
// engine step to a chaos fleet, each reporting host-time speed beside the
// simulated energy/QoS outcome, plus a traced pass that attributes host
// time to layers from the outside in. BENCHMARK.json at the checkout root
// declares every workload and metric; README.md explains them.
//
//	bash bench/run.sh -seed 1                 every workload, end-to-end metrics
//	bash bench/run.sh -seed 1 -trace 1        ... plus the traced pass and the layer ladder
//	bash bench/run.sh --workload router_closed --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare a.json b.json  gate b against a with BENCHMARK.json's bounds (a,a2,... b,b2,...: medians of sets)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// traceShare is the fraction of the declared run length the traced pass and
// its untraced twin each cover.
const traceShare = 0.2

// result is the whole invocation's outcome as written to result.json.
type result struct {
	Seed       int64                   `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	GoVersion  string                  `json:"go_version"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	NumCPU     int                     `json:"num_cpu"`
	Workloads  map[string]*workloadOut `json:"workloads"`
}

type workloadOut struct {
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Unresolved bool               `json:"unresolved,omitempty"`
	Checks     []string           `json:"failed_checks,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload and print the driver's JSON line (default: all)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "timed-phase size in reference-box seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced pass: per-layer metrics, spans in bench/out/<workload>.trace.json")
	compare := fs.Bool("compare", false, "compare result.json files (args: a.json[,a2.json...] b.json[,b2.json...]) against BENCHMARK.json's bounds")
	appendTo := fs.String("append", "", "append one trajectory line (commit, seed, every end-to-end metric) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.Chdir(root); err != nil {
		return err
	}
	man, err := loadManifest(manifestFile)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files (or two comma-separated sets)")
		}
		return compareFiles(man, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	p := params{seed: *seed, seconds: *seconds, shrink: 1, outDir: filepath.Join("bench", "out")}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	res := &result{
		Seed: p.seed, Seconds: p.seconds, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workloads: make(map[string]*workloadOut),
	}
	allCorrect := true
	// The ladder does not depend on the workload, so one climb serves all.
	climb := sync.OnceValues(func() (map[string]float64, error) { return ladder(p) })
	for _, w := range selected {
		out, err := measure(man, w, p, *trace == 1, *name == "", climb)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.Workloads[w.name] = out
		printLines(man, w.name, out)
		allCorrect = allCorrect && out.Correct
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(p.outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if *appendTo != "" {
		if err := appendHistory(*appendTo, res); err != nil {
			return err
		}
	}
	if *name != "" {
		if err := printDriverLine(man, res.Workloads[*name], *trace == 1); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// measure runs one workload. Untraced it makes the end-to-end pass. Traced
// it makes an untraced pass, a short pass with spans recorded, and the layer
// ladder (climb), and reports the per-layer metrics. The untraced pass is the
// end-to-end one when both is set (the run-everything mode), else a short one
// of the traced pass's own size.
func measure(man *manifest, w workload, p params, traced, both bool, climb func() (map[string]float64, error)) (*workloadOut, error) {
	out := &workloadOut{Correct: true}
	pass := func(p params, spans bool) (*report, error) {
		r, err := w.run(p, spans)
		if err != nil {
			return nil, err
		}
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Unresolved = out.Unresolved || r.Unresolved
		out.Checks = append(out.Checks, r.Checks...)
		out.Correct = out.Correct && r.correct()
		return r, nil
	}
	short := p
	short.seconds = p.seconds * traceShare
	var plain *report
	var err error
	if !traced || both {
		if plain, err = pass(p, false); err != nil {
			return nil, err
		}
		out.EndToEnd = make(map[string]float64)
		for _, d := range man.EndToEnd {
			v, ok := plain.Metrics[d.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			out.EndToEnd[d.Name] = v
		}
	}
	if !traced {
		return out, nil
	}
	if plain == nil {
		if plain, err = pass(short, false); err != nil {
			return nil, err
		}
	}
	withSpans, err := pass(short, true)
	if err != nil {
		return nil, err
	}
	lad, err := climb()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	merged := plain.Metrics
	for k, v := range withSpans.Metrics {
		// Span-derived metrics exist only in the traced pass; the speed and
		// tail metrics keep their untraced values.
		if _, untraced := merged[k]; !untraced {
			merged[k] = v
		}
	}
	for k, v := range lad {
		merged[k] = v
	}
	merged["bench.trace_overhead_ratio"] = plain.Metrics["ops_per_s"] / withSpans.Metrics["ops_per_s"]
	out.PerLayer = make(map[string]float64)
	for _, d := range man.PerLayer {
		// A layer the workload never enters reports zero work.
		out.PerLayer[d.Name] = merged[d.Name]
	}
	for k := range merged {
		if _, declared := man.unitOf(k); !declared {
			return nil, fmt.Errorf("metric %s is measured but not declared in %s", k, manifestFile)
		}
	}
	return out, nil
}

// printLines prints every metric as "workload metric value unit host|sim".
func printLines(man *manifest, workload string, out *workloadOut) {
	for _, set := range []struct {
		decls  []metricDecl
		values map[string]float64
	}{{man.EndToEnd, out.EndToEnd}, {man.PerLayer, out.PerLayer}} {
		if set.values == nil {
			continue
		}
		for _, d := range set.decls {
			fmt.Printf("%s %s %.9g %s %s\n", workload, d.Name, set.values[d.Name], d.Unit, hostOrSim(d.Name))
		}
	}
	status := "pass"
	switch {
	case !out.Correct:
		status = "FAIL"
	case out.Unresolved:
		status = "unresolved"
	}
	fmt.Printf("%s checks %s attempted=%d failed=%d\n", workload, status, out.Attempted, out.Failed)
	for _, c := range out.Checks {
		fmt.Printf("%s check-failed: %s\n", workload, c)
	}
}

// printDriverLine prints the one-object summary the benchmark driver reads
// from the last line of standard output.
func printDriverLine(man *manifest, out *workloadOut, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls, values := man.EndToEnd, out.EndToEnd
	if traced {
		decls, values = man.PerLayer, out.PerLayer
	}
	metrics := make(map[string]metric, len(decls))
	for _, d := range decls {
		metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendHistory appends one trajectory line: which commit, how it was run,
// and every end-to-end metric of every workload.
func appendHistory(path string, res *result) error {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	e2e := make(map[string]map[string]float64)
	for name, w := range res.Workloads {
		if w.EndToEnd != nil {
			e2e[name] = w.EndToEnd
		}
	}
	line, err := json.Marshal(struct {
		Commit     string                        `json:"commit"`
		Seed       int64                         `json:"seed"`
		Seconds    float64                       `json:"seconds"`
		GoVersion  string                        `json:"go_version"`
		GOMAXPROCS int                           `json:"gomaxprocs"`
		EndToEnd   map[string]map[string]float64 `json:"end_to_end"`
	}{commit, res.Seed, res.Seconds, res.GoVersion, res.GOMAXPROCS, e2e})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
