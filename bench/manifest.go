package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifest mirrors BENCHMARK.json, the single declaration of what this
// harness measures: the workload names, every metric's unit and direction,
// and the regression bound of each end-to-end metric. The harness reads it
// at start-up and refuses to emit a metric it does not declare.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const manifestFile = "BENCHMARK.json"

// findRoot walks up from the working directory to the checkout root (the
// directory holding BENCHMARK.json), so the harness runs the same from the
// root (`bash bench/run.sh`) and from bench/ (`go run -C bench .`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in any parent of the working directory", manifestFile)
		}
		dir = parent
	}
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// unitOf returns the declared unit of a metric, and whether it is declared
// at all (end-to-end or per-layer).
func (m *manifest) unitOf(name string) (string, bool) {
	for _, list := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}

// simMetrics are the simulated-time metrics: what the modelled phone and
// cloud would spend. They are a pure function of the seed on the
// single-driver workloads (exactWorkloads), so -compare holds them to
// bit-identity there when both runs share a seed; every other metric is
// host time (wall clock or memory of our own code) and carries run-to-run
// noise.
var simMetrics = map[string]bool{
	"served_ratio": true, "energy_mj_per_inf": true, "qos_miss_ratio": true, "sim_lat_p95_ms": true,
	"ppw_x_edgecpu": true, "ppw_vs_opt": true, "converge_runs": true, "pred_accuracy": true,
}

// exactWorkloads have one driving goroutine, so their simulated outcomes
// repeat bit for bit; the two-client workloads interleave engine steps by
// scheduling and repeat only statistically.
var exactWorkloads = map[string]bool{"engine_train": true, "fleet_chaos": true, "exp_figs": true}

// absBounds overrides the relative bound of BENCHMARK.json with an absolute
// one in -compare where a ratio of a near-constant is the wrong yardstick.
var absBounds = map[string]float64{"served_ratio": 0.005, "allocs_per_op": 0.25}

func hostOrSim(name string) string {
	if simMetrics[name] {
		return "sim"
	}
	return "host"
}
