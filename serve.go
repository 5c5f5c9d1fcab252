package autoscale

import (
	"autoscale/internal/serve"
	"autoscale/internal/serve/metrics"
)

// Fleet serving: a concurrent gateway that accepts inference requests
// through bounded per-device queues and serves them from warm-started
// engines, with admission control, deadline-aware dispatch, failover and
// runtime metrics (see internal/serve for full documentation).
type (
	// Gateway serves inference requests against a fleet of engines.
	Gateway = serve.Gateway
	// GatewayConfig tunes queue depth, shed policy, failover and the policy
	// checkpoint store (warm-start at boot, flush at shutdown, sync passes
	// on the virtual clock).
	GatewayConfig = serve.Config
	// GatewayBackend pairs a device name with its engine.
	GatewayBackend = serve.Backend
	// Request is one inference to serve (model, conditions, deadline,
	// optional device pin).
	Request = serve.Request
	// Response is the terminal outcome delivered per request.
	Response = serve.Response
	// RequestStatus classifies a response (served, shed, expired, failed).
	RequestStatus = serve.Status
	// ShedPolicy selects the admission-control victim on a full queue.
	ShedPolicy = serve.ShedPolicy
	// GatewayMetrics is a point-in-time copy of the gateway's counters and
	// histograms.
	GatewayMetrics = metrics.Snapshot
	// GatewayAdmin is the opt-in observability HTTP server: /metrics
	// (Prometheus text), /snapshot.json, /healthz, /breakers, /traces,
	// net/http/pprof and one document per attached AdminView.
	GatewayAdmin = serve.Admin
	// AdminSource is what the admin server observes; a Gateway and a Router
	// both satisfy it.
	AdminSource = serve.Source
	// AdminView is one tier's admin contribution — a JSON document and its
	// /metrics series — as returned by Router.AdminView (/shards),
	// Planner.AdminView (/plan) and Supervisor.AdminView (/supervisor).
	AdminView = serve.View
	// ResilienceConfig tunes the gateway's fault-handling path: per-remote
	// circuit breakers with half-open recovery probes, deadline-budgeted
	// retries with exponential backoff, and optional hedged offloads.
	ResilienceConfig = serve.ResilienceConfig
)

// Request outcomes.
const (
	StatusServed  = serve.StatusServed
	StatusShed    = serve.StatusShed
	StatusExpired = serve.StatusExpired
	StatusFailed  = serve.StatusFailed
)

// Shed policies.
const (
	ShedNewest = serve.ShedNewest
	ShedOldest = serve.ShedOldest
)

// Gateway sentinel errors.
var (
	ErrGatewayClosed   = serve.ErrClosed
	ErrQueueFull       = serve.ErrQueueFull
	ErrDeadlineExpired = serve.ErrDeadlineExpired
)

// NewGateway starts a serving gateway over the given backends: one lane per
// device, each a bounded queue drained by its own worker goroutine, where a
// synchronous Do on an idle lane runs on the caller's goroutine instead.
// Provision the engines however you like — Fleet.ProvisionGateway
// warm-starts a whole fleet in one call.
func NewGateway(backends []GatewayBackend, cfg GatewayConfig) (*Gateway, error) {
	return serve.New(backends, cfg)
}

// ServeAdmin binds the admin/observability endpoint for src on addr (e.g.
// ":9090") and serves it in the background until Close. List the view of
// every tier attached above src — rt.AdminView(), pl.AdminView(),
// sup.AdminView() — to serve its document and append its series to the one
// /metrics body.
func ServeAdmin(src AdminSource, addr string, views ...AdminView) (*GatewayAdmin, error) {
	return serve.ServeAdmin(src, addr, views...)
}
