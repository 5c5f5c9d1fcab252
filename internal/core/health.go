package core

import (
	"autoscale/internal/obs"
)

// rewardWindow is how many recent rewards the engine retains for the
// windowed mean-reward gauge. 256 steps ≈ a few minutes of inference at the
// paper's request rates — recent enough to show drift, wide enough to smooth
// per-request stochastic variance.
const rewardWindow = 256

// Health is a read-only sample of an engine's learning state, published by
// the telemetry plane (admin /metrics and /snapshot.json) and the qtable CLI.
// Sampling it never draws random numbers, advances clocks, or mutates the
// agent, so observation cannot perturb a deterministic run.
type Health struct {
	// Algorithm is the TD update rule ("Q-learning" or "SARSA").
	Algorithm string `json:"algorithm"`
	// Frozen reports exploitation-only mode.
	Frozen bool `json:"frozen"`
	// Epsilon is the current exploration probability.
	Epsilon float64 `json:"epsilon"`
	// States is the number of materialized Q rows; StateSpaceSize is the
	// full Table I grid and Coverage their ratio in [0,1].
	States         int     `json:"states"`
	StateSpaceSize int     `json:"state_space_size"`
	Coverage       float64 `json:"coverage"`
	// TotalVisits counts every action selection; MaxVisits is the hottest
	// state's count; VisitEntropy is the normalized Shannon entropy of the
	// visit distribution (1 = perfectly balanced experience).
	TotalVisits  int     `json:"total_visits"`
	MaxVisits    int     `json:"max_visits"`
	VisitEntropy float64 `json:"visit_entropy"`
	// ExplorationRatio is the fraction of selections that took the epsilon
	// branch (0 when nothing was selected yet); Selections is the total.
	ExplorationRatio float64 `json:"exploration_ratio"`
	Selections       int64   `json:"selections"`
	// TDErrorEMA is the agent's moving average of |TD error| over TDSamples
	// updates — the online convergence signal of Section VI-A.
	TDErrorEMA float64 `json:"td_error_ema"`
	TDSamples  int64   `json:"td_samples"`
	// MeanReward averages the last RewardSamples step rewards (window
	// capped at 256).
	MeanReward    float64 `json:"mean_reward"`
	RewardSamples int     `json:"reward_samples"`
	// VirtualS is the engine's virtual clock reading at sampling time.
	VirtualS float64 `json:"virtual_s"`
}

// Health samples the engine's learning-health gauges. It is safe to call
// concurrently with inference and is pure observation: no RNG draws, no
// clock movement, no agent mutation.
func (e *Engine) Health() Health {
	agent := e.agent.Load()
	e.mu.Lock()
	rewards := make([]float64, 0, e.rewardN)
	for i := 0; i < e.rewardN; i++ {
		rewards = append(rewards, e.rewards[i])
	}
	e.mu.Unlock()

	h := Health{
		Algorithm:      e.cfg.Algorithm.String(),
		Frozen:         agent.Frozen(),
		Epsilon:        agent.Epsilon(),
		States:         agent.NumStates(),
		StateSpaceSize: e.States.Size(),
		RewardSamples:  len(rewards),
		VirtualS:       e.Now(),
	}
	if h.StateSpaceSize > 0 {
		h.Coverage = float64(h.States) / float64(h.StateSpaceSize)
	}

	// Index order is the order the entropy sum has always taken.
	visited := agent.VisitedIdx()
	counts := make([]int, 0, len(visited))
	for _, i := range visited {
		if n := agent.VisitsIdx(i); n > 0 {
			h.TotalVisits += n
			counts = append(counts, n)
		}
	}
	h.MaxVisits = obs.MaxCount(counts)
	h.VisitEntropy = obs.Entropy(counts)

	explores, selections := agent.ExplorationStats()
	h.Selections = selections
	if selections > 0 {
		h.ExplorationRatio = float64(explores) / float64(selections)
	}
	h.TDErrorEMA, h.TDSamples = agent.TDErrorEMA()

	for _, r := range rewards {
		h.MeanReward += r
	}
	if len(rewards) > 0 {
		h.MeanReward /= float64(len(rewards))
	}
	return h
}

// noteRewardLocked pushes one step reward into the mean-reward ring.
// Caller holds e.mu.
func (e *Engine) noteRewardLocked(r float64) {
	if e.rewards == nil {
		e.rewards = make([]float64, rewardWindow)
	}
	e.rewards[e.rewardIdx] = r
	e.rewardIdx = (e.rewardIdx + 1) % rewardWindow
	if e.rewardN < rewardWindow {
		e.rewardN++
	}
}
