package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// verdict is one (workload, metric) comparison of the two sides' medians.
type verdict struct {
	workload, metric string
	a, b             float64
	kind             string // "exact", "abs" or "rel"
	limit            float64
	worse            float64 // how much b is worse than a, in the kind's own terms
	status           string  // "ok", "BREACH" or "unresolved"
}

// judge compares candidate b against baseline a for one declared metric.
//
//   - exact: a simulated metric on a single-driver workload, same seed and
//     size on both sides: any difference at all is a behaviour change.
//   - abs: the metric has an absolute bound (absBounds): b may be worse by at
//     most that much.
//   - rel: b may be worse than a by at most bound x |a|, in the metric's
//     declared direction.
func judge(d metricDecl, workload string, a, b float64, sameInputs bool) verdict {
	v := verdict{workload: workload, metric: d.Name, a: a, b: b, status: "ok"}
	worse := b - a
	if d.Better == "higher" {
		worse = a - b
	}
	switch abs, hasAbs := absBounds[d.Name]; {
	case simMetrics[d.Name] && exactWorkloads[workload] && sameInputs:
		v.kind, v.limit, v.worse = "exact", 0, math.Abs(b-a)
	case hasAbs:
		v.kind, v.limit, v.worse = "abs", abs, worse
	default:
		v.kind, v.limit = "rel", d.Bound
		if a != 0 {
			v.worse = worse / math.Abs(a)
		} else if worse > 0 {
			v.worse = math.Inf(1)
		}
	}
	if v.worse > v.limit {
		v.status = "BREACH"
	}
	return v
}

// gatedPerLayer are the per-layer metrics -compare still holds to a bound:
// the end-to-end candidates that could not be declared end-to-end because
// they are zero or undefined on some workload (see README.md). They borrow
// the bound the issue gave them.
var gatedPerLayer = map[string]metricDecl{
	"allocs_per_op": {Name: "allocs_per_op", Better: "lower"},
	"ppw_x_edgecpu": {Name: "ppw_x_edgecpu", Better: "higher", Bound: 0.05},
	"ppw_vs_opt":    {Name: "ppw_vs_opt", Better: "higher", Bound: 0.05},
	"converge_runs": {Name: "converge_runs", Better: "lower", Bound: 0.10},
	"pred_accuracy": {Name: "pred_accuracy", Better: "higher", Bound: 0.05},
}

// readResults reads one side of a comparison: a comma-separated list of
// result files, all runs of the same commit.
func readResults(paths string) ([]*result, error) {
	var out []*result
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// side is one workload's runs on one side of a comparison.
type side []*workloadOut

// values collects a metric over the side's runs, from the end-to-end or the
// per-layer set.
func (s side) values(name string, perLayer bool) []float64 {
	var out []float64
	for _, w := range s {
		set := w.EndToEnd
		if perLayer {
			set = w.PerLayer
		}
		if v, ok := set[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func (s side) unresolved() bool {
	return slices.ContainsFunc(s, func(w *workloadOut) bool { return w.Unresolved })
}

// spreadWiderThan reports whether the runs' interquartile range exceeds
// limit x their median; with fewer than four runs there are no quartiles and
// the spread is taken on trust.
func spreadWiderThan(vals []float64, limit float64) bool {
	if len(vals) < 4 {
		return false
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return percentile(s, 0.75)-percentile(s, 0.25) > limit*math.Abs(median(s))
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDecl, a, b []float64) bool {
	if d.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareResults judges the median of every metric both sides carry. Host
// metrics are reported as unresolved — never as a pass or a breach — for a
// workload either side marked unresolved, and where the baseline's own
// run-to-run spread is wider than the bound, unless every candidate run
// beats every baseline run.
func compareResults(man *manifest, a, b []*result) []verdict {
	sameInputs := true
	for _, r := range append(slices.Clone(a), b...) {
		sameInputs = sameInputs && r.Seed == a[0].Seed && r.Seconds == a[0].Seconds
	}
	var out []verdict
	for _, w := range man.Workloads {
		var sa, sb side
		for _, r := range a {
			if wo := r.Workloads[w.Name]; wo != nil {
				sa = append(sa, wo)
			}
		}
		for _, r := range b {
			if wo := r.Workloads[w.Name]; wo != nil {
				sb = append(sb, wo)
			}
		}
		check := func(d metricDecl, perLayer bool) {
			va, vb := sa.values(d.Name, perLayer), sb.values(d.Name, perLayer)
			if len(va) == 0 || len(vb) == 0 {
				return
			}
			v := judge(d, w.Name, median(va), median(vb), sameInputs)
			switch {
			case simMetrics[d.Name]:
			case sa.unresolved() || sb.unresolved():
				v.status = "unresolved"
			case v.kind == "rel" && spreadWiderThan(va, v.limit):
				v.status = "unresolved"
				if allBetter(d, va, vb) {
					v.status = "ok"
				}
			}
			out = append(out, v)
		}
		for _, d := range man.EndToEnd {
			check(d, false)
		}
		for _, d := range man.PerLayer {
			if g, ok := gatedPerLayer[d.Name]; ok {
				check(g, true)
			}
		}
	}
	return out
}

// compareFiles prints the comparison of two sets of result files (each a
// comma-separated list) and returns an error if any metric breaches its
// bound.
func compareFiles(man *manifest, pathsA, pathsB string, w io.Writer) error {
	a, err := readResults(pathsA)
	if err != nil {
		return err
	}
	b, err := readResults(pathsB)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %6s %9s %9s  %s\n", "workload", "metric", "a", "b", "kind", "worse", "limit", "status")
	for _, v := range compareResults(man, a, b) {
		fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %6s %9.4g %9.4g  %s\n",
			v.workload, v.metric, v.a, v.b, v.kind, v.worse, v.limit, v.status)
		if v.status == "BREACH" {
			breaches++
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics breach their bound", breaches)
	}
	return nil
}
