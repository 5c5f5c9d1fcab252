package autoscale

import "autoscale/internal/tracez"

// Causal tracing plane: sampled requests carry a trace handle through
// router admission, DRR dispatch, gateway queueing, the decide step and
// the execution legs, accumulating a span tree whose decide span records
// full decision provenance (dense state index, per-action Q-values, the
// applied feasibility mask, the epsilon-draw exploration flag). Tail-based
// sampling keeps every trace that sheds, expires, fails over or hedges;
// the rest head-sample on the tracer's own deterministic stream, so a
// fixed-seed replay keeps an identical trace set. The flight recorder
// rides alongside: a structured event ring (breaker transitions,
// supervisor ladder edges, planner actuations, checkpoint I/O verdicts)
// snapshotted to disk as an incident bundle whenever the supervisor
// remediates. See internal/tracez for full documentation.
type (
	// Tracer owns sampling, the kept-trace ring and the exports backing
	// the admin /traces endpoints.
	Tracer = tracez.Tracer
	// TracerConfig tunes sample rate, ring capacity and the sampling
	// seed. Zero values select the defaults.
	TracerConfig = tracez.Config
	// RequestTrace is one finished trace: identity, flags, span tree and
	// decision provenance.
	RequestTrace = tracez.Trace
	// FlightRecorder is the incident ring: structured control-plane
	// events plus kept traces, dumped as a JSON bundle on supervisor
	// remediation.
	FlightRecorder = tracez.FlightRecorder
)

// NewTracer builds a causal tracer. Wire it into a RouterConfig (the router
// starts traces at admission) or a GatewayConfig (a standalone gateway
// starts them at submit).
func NewTracer(cfg TracerConfig) *Tracer {
	return tracez.New(cfg)
}

// NewFlightRecorder builds an incident flight recorder over a tracer.
// dir "" keeps the ring in memory without disk bundles; maxEvents and
// maxDumps zero select the defaults (512 events, 8 bundles).
func NewFlightRecorder(tr *Tracer, dir string, maxEvents, maxDumps int) *FlightRecorder {
	return tracez.NewFlightRecorder(tr, dir, maxEvents, maxDumps)
}
