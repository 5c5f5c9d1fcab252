// Package obs is the unified telemetry plane: log-linear-bucket histograms
// as plain values that add in place, phase-span stopwatches stamped on the
// virtual clock, learning-health helpers (visit entropy), and a Prometheus
// text-exposition writer.
//
// The paper's whole argument is distributional — its figures report energy
// and latency behaviour under stochastic variance — so a serving stack that
// can only report counters and means is blind to exactly the effects the
// system exists to manage. This package provides the read-side primitives
// the gateway, the metrics registry and the admin endpoint are built on.
//
// Everything here is observation only: nothing in this package draws random
// numbers, advances clocks, or otherwise perturbs the execution it watches,
// so enabling telemetry cannot change a deterministic replay.
package obs
