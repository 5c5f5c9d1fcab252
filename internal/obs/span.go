package obs

// Canonical request phases of the serving pipeline, in pipeline order:
// admission wait, queue wait, the engine's decision overhead, the executed
// inference, and the optional hedge leg.
const (
	// PhaseQueue is the wait between admission and worker pickup, measured
	// on the gateway clock.
	PhaseQueue = "queue"
	// PhaseDecide is the scheduling overhead from serve start to the end of
	// the engine step — admission bookkeeping, drills, the deadline check,
	// observe, Q-lookup — measured on the gateway clock (the simulated
	// inference itself costs no wall time, so this is the decision overhead
	// the paper reports in Section VI-C).
	PhaseDecide = "decide"
	// PhaseExecute is the executed inference (including any in-sim outage
	// timeout), measured on the virtual clock.
	PhaseExecute = "execute"
	// PhaseHedge is the local hedge leg raced against a slow remote,
	// measured on the virtual clock.
	PhaseHedge = "hedge"
)

// Phase indices for PhaseTotals, in the same pipeline order as Phases().
const (
	PhaseQueueIdx = iota
	PhaseDecideIdx
	PhaseExecuteIdx
	PhaseHedgeIdx
	// NumPhases is the number of canonical phases.
	NumPhases
)

// phaseNames maps phase index -> canonical name.
var phaseNames = [NumPhases]string{PhaseQueue, PhaseDecide, PhaseExecute, PhaseHedge}

// Phases returns a fresh copy of the canonical phase names in pipeline order.
func Phases() []string { return append([]string(nil), phaseNames[:]...) }

// PhaseTotals accumulates per-phase durations in a fixed array, without
// allocating. The zero value is ready to use; it belongs to one request and
// is not safe for concurrent use.
type PhaseTotals struct {
	totals [NumPhases]float64
}

// Add accumulates durS seconds into the indexed phase.
func (p *PhaseTotals) Add(idx int, durS float64) { p.totals[idx] += durS }

// Total returns the accumulated seconds of the indexed phase.
func (p PhaseTotals) Total(idx int) float64 { return p.totals[idx] }

// Durations materializes the non-zero totals as a map, nil when every
// phase is zero — a request that was never hedged carries no hedge key,
// keeping the trace's phases field compact.
func (p PhaseTotals) Durations() map[string]float64 {
	n := 0
	for _, d := range p.totals {
		if d != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(map[string]float64, n)
	for i, d := range p.totals {
		if d != 0 {
			out[phaseNames[i]] = d
		}
	}
	return out
}
