package exp

import (
	"fmt"
	"sort"
)

// Runner regenerates one table or figure.
type Runner func(Options) (*Table, error)

// registry maps experiment IDs to their runners, in the paper's numbering.
var registry = map[string]Runner{
	"tableI":        func(Options) (*Table, error) { return TableI(), nil },
	"tableII":       func(Options) (*Table, error) { return TableII(), nil },
	"tableIII":      func(Options) (*Table, error) { return TableIII(), nil },
	"tableIV":       func(Options) (*Table, error) { return TableIV(), nil },
	"fig2":          Fig2,
	"fig3":          Fig3,
	"fig4":          Fig4,
	"fig5":          Fig5,
	"fig6":          Fig6,
	"fig7":          Fig7,
	"fig9":          Fig9,
	"fig10":         Fig10,
	"fig11":         Fig11,
	"fig12":         Fig12,
	"fig13":         Fig13,
	"fig14":         Fig14,
	"ablation":      StateAblation,
	"ext-actions":   ExtensionActions,
	"ext-faults":    ExtensionFaults,
	"ext-links":     ExtensionLinks,
	"ext-npu":       ExtensionNPU,
	"ext-outage":    ExtensionOutage,
	"ext-partition": ExtensionPartition,
	"ext-plan":      ExtensionPlan,
	"ext-sarsa":     ExtensionSARSA,
}

// IDs returns the registered experiment IDs in a stable order: tables first,
// then figures by number, then ablations.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return expOrder(out[i]) < expOrder(out[j]) })
	return out
}

func expOrder(id string) string {
	// tables sort before figN (zero-padded), ablations last
	switch {
	case len(id) >= 5 && id[:5] == "table":
		return "0" + id
	case len(id) >= 3 && id[:3] == "fig":
		return fmt.Sprintf("1fig%02s", id[3:])
	default:
		return "2" + id
	}
}

// Run executes the experiment with the given ID. The experiment occupies one
// slot of the options' worker pool while it computes and lends that slot to
// its cells during fan-out phases, so concurrent Run calls sharing Options
// (as in RunAll) never exceed Parallel units of running work.
func Run(id string, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	opts.pool.acquire()
	defer opts.pool.release()
	return runHeld(id, opts)
}

// runHeld executes the experiment's runner; the caller already holds one
// pool token on the options' pool.
func runHeld(id string, opts Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	opts.held = true
	return r(opts)
}
