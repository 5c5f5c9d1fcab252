package autoscale

import "autoscale/internal/exec"

// Execution-context types (see internal/exec for full documentation).
//
// An ExecContext is the substrate's determinism primitive: a root is built
// from one seed, and every stochastic component draws from named streams
// derived from it, so a request's random draws are a pure function of
// (root seed, request identity) — independent of goroutine interleaving.
type (
	// ExecContext derives named RNG streams and shares a virtual clock.
	ExecContext = exec.Context
)

// NewExecContext creates a root execution context from a seed. Use Child to
// scope it to a request and Stream to draw named deterministic randomness:
//
//	ctx := autoscale.NewExecContext(42)
//	rng := ctx.Child("req", 7).Stream("arrival")
func NewExecContext(seed int64) *ExecContext { return exec.NewRoot(seed) }
