package obs

// Provenance captures why the decide step chose what it chose. Each layer
// fills its own fields in place — rl the selection, core the state and the
// applied mask, the serving layer the rendered names — and Q and Mask are
// refilled, so a reused Provenance allocates nothing in steady state.
type Provenance struct {
	StateIdx  int32     `json:"state_idx"`
	State     string    `json:"state,omitempty"`
	Epsilon   float64   `json:"epsilon"`
	Frozen    bool      `json:"frozen,omitempty"`
	Explored  bool      `json:"explored"`
	Action    string    `json:"action,omitempty"`
	ActionIdx int       `json:"action_idx"`
	Q         []float64 `json:"q,omitempty"`
	Mask      []bool    `json:"mask,omitempty"`
	MaskedOut int       `json:"masked_out,omitempty"`
}

// Reset zeroes p, keeping the capacity of its Q and Mask slices. A nil p
// is a no-op.
func (p *Provenance) Reset() {
	if p != nil {
		*p = Provenance{Q: p.Q[:0], Mask: p.Mask[:0]}
	}
}
