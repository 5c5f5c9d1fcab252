package autoscale

import (
	"autoscale/internal/router"
	"autoscale/internal/super"
)

// Self-healing tier: a supervision loop on the virtual clock above the
// router, scoring shard health from signals the system already emits and
// remediating with hysteresis — probe, cordon, drain + warm re-home, restart
// with crash-loop backoff, condemn when the remediation budget runs out —
// plus the chaos-soak invariant auditor. See internal/super for full
// documentation.
type (
	// Supervisor is the self-healing loop over one router; drive it by
	// calling MaybeTick with each request's virtual arrival time, like the
	// capacity planner.
	Supervisor = super.Supervisor
	// SupervisorConfig tunes the tick interval, the latency target, the
	// crash-loop backoff and the remediation budget. Zero values select the
	// defaults.
	SupervisorConfig = super.Config
	// ChaosAuditor asserts the chaos-soak invariants: clock monotonicity
	// per shard incarnation, exactly-once request conservation, in-flight
	// settling to zero, and checkpoint CRC integrity.
	ChaosAuditor = super.Auditor
)

// NewSupervisor builds the self-healing loop over a router.
func NewSupervisor(rt *Router, cfg SupervisorConfig) (*Supervisor, error) {
	return super.New(rt, cfg)
}

// NewChaosAuditor builds an invariant auditor over a router and (optionally)
// the raw checkpoint store backing it — pass the *PolicyStore itself, not a
// fault sink, so the final CRC sweep sees real I/O.
func NewChaosAuditor(rt *router.Router, store *PolicyStore) (*ChaosAuditor, error) {
	return super.NewAuditor(rt, store)
}
