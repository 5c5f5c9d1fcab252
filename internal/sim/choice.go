package sim

// Choice is the selection rule the paper defines its oracle and planned
// baselines by (Section V-A, footnote 8): among the offered candidates that
// meet AccTarget, the one with the highest PPW within QoSS; if none is
// within QoSS, the fastest of them; if none meets AccTarget, the most
// accurate candidate overall. Every comparison is strict, so ties keep the
// earlier offer and the answer depends on the order candidates are offered
// in. Callers name each candidate by an index, usually into their own
// candidate slice.
type Choice struct {
	QoSS      float64 // latency constraint, seconds
	AccTarget float64 // accuracy constraint, percent

	best, fast, acc             int
	bestM, fastM, accM          Measurement
	haveBest, haveFast, haveAcc bool
}

// Offer considers candidate i with expected outcome m.
func (c *Choice) Offer(i int, m Measurement) {
	if m.Accuracy >= c.AccTarget {
		if m.LatencyS <= c.QoSS && (!c.haveBest || m.PPW() > c.bestM.PPW()) {
			c.best, c.bestM, c.haveBest = i, m, true
		}
		if !c.haveFast || m.LatencyS < c.fastM.LatencyS {
			c.fast, c.fastM, c.haveFast = i, m, true
		}
	}
	if !c.haveAcc || m.Accuracy > c.accM.Accuracy {
		c.acc, c.accM, c.haveAcc = i, m, true
	}
}

// Result returns the chosen candidate's index and measurement; ok is false
// when nothing was offered.
func (c *Choice) Result() (i int, m Measurement, ok bool) {
	switch {
	case c.haveBest:
		return c.best, c.bestM, true
	case c.haveFast:
		return c.fast, c.fastM, true
	}
	return c.acc, c.accM, c.haveAcc
}
