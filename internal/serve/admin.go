package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/obs"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/tracez"
)

// Source is what the admin endpoint observes: anything that can produce a
// metrics snapshot, per-device learning health, a liveness bit and its causal
// tracer (nil when tracing is off). A single Gateway satisfies it directly;
// the routing tier satisfies it by merging its shards.
type Source interface {
	Snapshot() metrics.Snapshot
	Health() map[string]core.Health
	Closed() bool
	Tracer() *tracez.Tracer
}

// View is one extra admin document plus its /metrics series: what a tier
// above the gateway (router, planner, supervisor) contributes to the
// endpoint. The admin server knows only the path and the two renderers, so
// it depends on none of the tiers it shows.
type View struct {
	// Path is the document's URL path, e.g. "/shards".
	Path string
	// JSON renders the document served at Path.
	JSON func() ([]byte, error)
	// Prom appends the view's series to the /metrics body.
	Prom func(*obs.Prom)
}

// HealthzSyncFailThreshold is the consecutive policy-sync failure count at
// which /healthz flips to 503: one or two failed passes are retried noise,
// a persistent streak means the fleet's learning plane is down and the node
// should be pulled from rotation.
const HealthzSyncFailThreshold = 3

// Admin is the serving layer's opt-in observability endpoint: a small HTTP
// server exposing the source's metrics as Prometheus text (/metrics), the
// full snapshot plus per-device learning health as JSON (/snapshot.json), a
// liveness probe (/healthz), breaker states (/breakers), kept traces
// (/traces), one document per listed view (/shards, /plan, /supervisor when
// those tiers are attached; 404 otherwise) and the standard net/http/pprof
// handlers (/debug/pprof/). Everything it serves is read-side
// observation — handlers never draw random numbers, advance virtual clocks,
// or mutate the source — so scraping a deterministic run cannot perturb it.
type Admin struct {
	src   Source
	views []View
	ln    net.Listener
	srv   *http.Server
}

// ServeAdmin binds the admin server on addr (e.g. ":9090" or "127.0.0.1:0")
// for src plus the listed views and serves it on a background goroutine
// until Close.
func ServeAdmin(src Source, addr string, views ...View) (*Admin, error) {
	if src == nil {
		return nil, fmt.Errorf("serve: admin needs a source")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: admin listen %s: %w", addr, err)
	}
	a := &Admin{src: src, views: views, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/snapshot.json", a.handleSnapshot)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/breakers", a.handleBreakers)
	mux.HandleFunc("/traces", a.handleTraces)
	mux.HandleFunc("/traces/", a.handleTrace)
	for _, v := range views {
		mux.HandleFunc(v.Path, viewHandler(v))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go a.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return a, nil
}

// viewHandler serves one view's JSON document.
func viewHandler(v View) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, err := v.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck
	}
}

// Addr returns the bound address (resolving ":0" to the chosen port).
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the admin server gracefully: the listener closes immediately
// (no new connections) and in-flight handlers get up to a second to finish
// writing their responses before the server is torn down. The old behavior —
// http.Server.Close alone — could sever a /metrics or /traces response
// mid-body and leave handler goroutines running behind a "closed" admin.
func (a *Admin) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	if err != nil {
		// Drain timed out (a wedged handler): fall back to the hard close so
		// Close never leaks the server, and report the drain failure.
		if cerr := a.srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// handleMetrics renders the whole scrape body through one encoder — source
// series, then each view's, then the tracer's — so every metric's HELP/TYPE
// header is emitted exactly once whatever tiers are attached.
func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p obs.Prom
	AppendProm(&p, a.src.Snapshot(), a.src.Health())
	for _, v := range a.views {
		v.Prom(&p)
	}
	a.src.Tracer().AppendProm(&p)
	w.Header().Set("Content-Type", obs.PromContentType)
	p.WriteTo(w) //nolint:errcheck
}

// handleTraces serves the /traces index (sampling counters plus one row per
// kept trace). ?format=chrome exports the whole ring as one Chrome
// trace-event document for chrome://tracing.
func (a *Admin) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := a.src.Tracer()
	if tr == nil {
		http.Error(w, "tracing not enabled", http.StatusNotFound)
		return
	}
	a.writeTraceDoc(w, tr, 0, r.URL.Query().Get("format"))
}

// handleTrace serves one kept trace by ID (/traces/{id}): the full span tree
// with decision provenance as JSON by default, ?format=chrome for the
// Chrome trace-event codec.
func (a *Admin) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := a.src.Tracer()
	if tr == nil {
		http.Error(w, "tracing not enabled", http.StatusNotFound)
		return
	}
	id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/traces/"), 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	a.writeTraceDoc(w, tr, id, r.URL.Query().Get("format"))
}

// writeTraceDoc renders one trace (or, with id 0, the whole ring) in the
// requested format. The empty format means the natural default: the index
// document for the ring, raw JSON for a single trace.
func (a *Admin) writeTraceDoc(w http.ResponseWriter, tr *tracez.Tracer, id uint64, format string) {
	var b []byte
	var err error
	switch format {
	case "", "json":
		if id == 0 {
			b, err = tr.IndexJSON()
		} else {
			b, err = tr.TraceJSON(id)
		}
	case "chrome":
		b, err = tr.ChromeJSON(id)
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck
}

// adminSnapshot is the /snapshot.json document.
type adminSnapshot struct {
	Metrics metrics.Snapshot       `json:"metrics"`
	Health  map[string]core.Health `json:"health"`
}

func (a *Admin) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(adminSnapshot{Metrics: a.src.Snapshot(), Health: a.src.Health()}) //nolint:errcheck
}

func (a *Admin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if a.src.Closed() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if s := a.src.Snapshot(); s.SyncConsecutiveFailures >= HealthzSyncFailThreshold {
		http.Error(w, fmt.Sprintf("policy sync failing (%d consecutive): %s",
			s.SyncConsecutiveFailures, s.SyncLastError), http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n")) //nolint:errcheck
}

func (a *Admin) handleBreakers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(a.src.Snapshot().ByBreaker) //nolint:errcheck
}

// breakerStateValue encodes a breaker state for the gauge: closed is healthy
// (0), half-open probing (1), open tripped (2).
func breakerStateValue(state string) float64 {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return 0
}

// AppendProm appends a metrics snapshot and per-device learning health to a
// Prometheus text-exposition body. The output is deterministic for a given
// input: map-keyed series are emitted in sorted key order, phase histograms
// in the obs package's canonical phase order.
func AppendProm(p *obs.Prom, s metrics.Snapshot, health map[string]core.Health) {
	// Request flow.
	p.Counter("autoscale_requests_submitted_total", "Requests entering admission control.", float64(s.Submitted))
	p.Counter("autoscale_requests_total", "Requests by terminal outcome.", float64(s.Served), "outcome", "served")
	p.Counter("autoscale_requests_total", "Requests by terminal outcome.", float64(s.Shed), "outcome", "shed")
	p.Counter("autoscale_requests_total", "Requests by terminal outcome.", float64(s.Expired), "outcome", "expired")
	p.Counter("autoscale_requests_total", "Requests by terminal outcome.", float64(s.Failed), "outcome", "failed")
	p.Counter("autoscale_qos_violations_total", "Served requests over their latency target.", float64(s.QoSViolations))
	p.Gauge("autoscale_queue_depth", "Aggregate queued requests right now.", float64(s.QueueDepth))
	p.Gauge("autoscale_queue_depth_max", "High watermark of the aggregate queue depth.", float64(s.QueueMaxDepth))

	// Resilience machinery.
	p.Counter("autoscale_outages_total", "Simulated radio outages absorbed by the local fallback.", float64(s.Outages))
	p.Counter("autoscale_failover_retries_total", "QoS-missed requests re-executed on the local fallback.", float64(s.Retried))
	p.Counter("autoscale_offload_retries_total", "Deadline-budgeted offload retries launched.", float64(s.OffloadRetries))
	p.Counter("autoscale_offload_retries_recovered_total", "Offload retries that reached the remote cleanly.", float64(s.RetriesRecovered))
	p.Counter("autoscale_offload_retries_abandoned_total", "Retries skipped for an unaffordable deadline budget.", float64(s.RetriesAbandoned))
	p.Counter("autoscale_hedges_total", "Hedged offloads launched against slow remotes.", float64(s.Hedges))
	p.Counter("autoscale_hedges_won_total", "Hedges whose local leg answered first.", float64(s.HedgesWon))
	p.Counter("autoscale_hedges_lost_total", "Hedges whose remote leg answered first.", float64(s.HedgesLost))
	p.Counter("autoscale_breaker_transitions_total", "Circuit-breaker transitions by destination state.", float64(s.BreakerOpens), "to", "open")
	p.Counter("autoscale_breaker_transitions_total", "Circuit-breaker transitions by destination state.", float64(s.BreakerHalfOpens), "to", "half-open")
	p.Counter("autoscale_breaker_transitions_total", "Circuit-breaker transitions by destination state.", float64(s.BreakerCloses), "to", "closed")
	p.Counter("autoscale_worker_crashes_total", "Scripted worker-crash drills fired.", float64(s.WorkerCrashes))
	p.Counter("autoscale_checkpoint_corruptions_total", "Scripted checkpoint-corruption drills fired.", float64(s.CorruptDrills))
	p.Counter("autoscale_degraded_seconds_total", "Seconds served with at least one breaker open.", s.DegradedSeconds)
	p.Counter("autoscale_wasted_joules_total", "Energy burned on failed or superseded offload attempts.", s.OutageWastedJ)

	// Policy-sync plane.
	p.Counter("autoscale_policy_sync_passes_total", "Completed policy-sync passes.", float64(s.SyncPasses))
	p.Counter("autoscale_policy_sync_failures_total", "Policy-sync passes reporting errors.", float64(s.SyncFailures))
	p.Gauge("autoscale_policy_sync_consecutive_failures", "Failed sync passes since the last clean one.", float64(s.SyncConsecutiveFailures))

	for _, label := range sortedKeys(s.ByBreaker) {
		p.Gauge("autoscale_breaker_state", "Breaker state: 0 closed, 1 half-open, 2 open.",
			breakerStateValue(s.ByBreaker[label]), "breaker", label)
	}
	for _, loc := range sortedKeys(s.ByTarget) {
		p.Counter("autoscale_executions_total", "Executions by location.", float64(s.ByTarget[loc]), "location", loc)
	}
	for _, dev := range sortedKeys(s.ByDevice) {
		p.Counter("autoscale_device_requests_total", "Executions by serving device.", float64(s.ByDevice[dev]), "device", dev)
	}

	// Distributions.
	p.Histogram("autoscale_request_latency_seconds", "End-to-end execution latency.", s.Latency)
	p.Histogram("autoscale_queue_wait_seconds", "Admission-to-pickup queue wait.", s.Wait)
	p.Histogram("autoscale_request_energy_joules", "Mobile-side energy per request.", s.Energy)
	if s.VWait.Count > 0 {
		p.Histogram("autoscale_virtual_wait_seconds", "Virtual queue wait (lane clock minus arrival stamp).", s.VWait)
	}
	for _, tenant := range sortedKeys(s.ByTenant) {
		p.Histogram("autoscale_tenant_response_seconds", "Virtual response time (vwait plus execution latency) per tenant.",
			s.ByTenant[tenant], "tenant", tenant)
	}
	for _, phase := range obs.Phases() {
		hs, ok := s.Phases[phase]
		if !ok {
			continue
		}
		p.Histogram("autoscale_phase_seconds", "Per-phase request time decomposition.", hs, "phase", phase)
	}

	// Learning health, one gauge set per device.
	for _, dev := range sortedKeys(health) {
		h := health[dev]
		frozen := 0.0
		if h.Frozen {
			frozen = 1
		}
		p.Gauge("autoscale_rl_epsilon", "Exploration probability.", h.Epsilon, "device", dev)
		p.Gauge("autoscale_rl_frozen", "1 when the agent is exploitation-only.", frozen, "device", dev)
		p.Gauge("autoscale_rl_states", "Materialized Q-table rows.", float64(h.States), "device", dev)
		p.Gauge("autoscale_rl_state_space_size", "Full discrete state-space size.", float64(h.StateSpaceSize), "device", dev)
		p.Gauge("autoscale_rl_coverage", "Fraction of the state space materialized.", h.Coverage, "device", dev)
		p.Gauge("autoscale_rl_visits", "Total action selections.", float64(h.TotalVisits), "device", dev)
		p.Gauge("autoscale_rl_visit_entropy", "Normalized entropy of state-visit counts.", h.VisitEntropy, "device", dev)
		p.Gauge("autoscale_rl_exploration_ratio", "Fraction of selections that explored.", h.ExplorationRatio, "device", dev)
		p.Gauge("autoscale_rl_td_error_ema", "Moving average of |TD error|.", h.TDErrorEMA, "device", dev)
		p.Gauge("autoscale_rl_mean_reward", "Mean reward over the recent window.", h.MeanReward, "device", dev)
		p.Gauge("autoscale_rl_virtual_seconds", "Engine virtual-clock reading.", h.VirtualS, "device", dev)
	}
}

// sortedKeys returns a map's keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
