package rl

import "autoscale/internal/obs"

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

// StepIdx is the SARSA counterpart of Agent.StepIdx, in one critical
// section: it selects A′ for S′ = i exactly as SelectIdx does, then
// completes the staged update st (nil: nothing staged; a frozen agent drops
// it) by bootstrapping from Q(S′,A′). On an error nothing has changed, st
// included, and p is reset.
func (a *SarsaAgent) StepIdx(st *Staged, i int32, mask []bool, p *obs.Provenance) (int, error) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	learn := st != nil && !a.frozen.Load()
	if err := a.checkStep(st, learn, i); err != nil {
		p.Reset()
		return 0, err
	}
	idx, err := a.selectLocked(i, mask, countEnabled(mask, a.actions), -1, p)
	if err != nil || !learn {
		return idx, err
	}
	a.tdLocked(st.State, st.Action, st.Reward, loadQ(&a.tab.row(i)[idx]))
	return idx, nil
}
