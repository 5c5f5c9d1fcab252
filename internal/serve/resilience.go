package serve

// ResilienceConfig tunes the gateway's resilient offload path:
// deadline-budgeted offload retries and hedged offloads. The zero value
// disables the whole layer (Enabled false); an enabled config with zero
// fields gets the defaults below.
type ResilienceConfig struct {
	// Enabled switches the resilience layer on.
	Enabled bool
	// MaxRetries bounds the deadline-budgeted offload retries after an
	// outage (default 1; negative disables retries).
	MaxRetries int
	// Hedge enables hedged offloads: when a remote answer is slower than
	// HedgeAfterS and the deadline budget allows, a local leg races it and
	// the earlier answer wins.
	Hedge bool
	// HedgeAfterS is the remote latency beyond which the local hedge leg
	// fires (default 25 ms — half the paper's 50 ms QoS budget).
	HedgeAfterS float64
}

// retryBackoffS is the base backoff before the first offload retry (2 ms),
// doubled per attempt, plus up to 50% deterministic jitter from the
// request's named RNG stream.
const retryBackoffS = 0.002

func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	if !rc.Enabled {
		return rc
	}
	if rc.MaxRetries == 0 {
		rc.MaxRetries = 1
	}
	if rc.HedgeAfterS <= 0 {
		rc.HedgeAfterS = 0.025
	}
	return rc
}
