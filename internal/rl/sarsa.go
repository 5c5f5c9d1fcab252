package rl

import (
	"fmt"
	"math"
)

// SarsaAgent is an on-policy TD(0) alternative to the Q-learning Agent. The
// paper weighs Q-learning against TD-learning and deep RL (Section IV,
// [14],[70],[79]) and picks Q-learning for its lookup-table latency; SARSA
// shares the table representation (and thus the overhead) but bootstraps
// from the action the policy *actually* takes next instead of the greedy
// maximum:
//
//	Q(S,A) <- Q(S,A) + gamma [ R + mu Q(S',A') - Q(S,A) ]
//
// It exists so the design choice can be evaluated empirically (see the
// ablation benches); it reuses the Agent's table, exploration, persistence
// and transfer machinery via embedding.
//
// Wrap an existing agent: &SarsaAgent{Agent: ag}.
type SarsaAgent struct {
	*Agent
}

// UpdateSarsaIdx applies the SARSA rule to the states at dense indices si and
// ni using nextAction — the action the policy selected in the next state.
// Frozen agents ignore updates.
func (a *SarsaAgent) UpdateSarsaIdx(si int32, action int, reward float64, ni int32, nextAction int) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return nil
	}
	if err := a.checkUpdate(si, action, ni); err != nil {
		return err
	}
	if nextAction < 0 || nextAction >= a.actions {
		return fmt.Errorf("rl: next action %d out of range", nextAction)
	}
	nextQ := loadQ(&a.ensureRowLocked(ni)[nextAction])
	cell := &a.ensureRowLocked(si)[action]
	q := loadQ(cell)
	delta := reward + a.cfg.Discount*nextQ - q
	a.noteTDLocked(delta)
	cell.Store(math.Float64bits(q + a.cfg.LearningRate*delta))
	return nil
}
