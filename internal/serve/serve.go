// Package serve is the fleet-serving layer on top of the AutoScale engine:
// a Gateway that owns one warm-started engine per device, accepts inference
// requests through bounded per-device queues, and returns responses on
// per-request channels. The paper's engine decides one inference at a time
// on one device; a production deployment faces a stream of requests from
// many services against a heterogeneous fleet, and needs the plumbing the
// paper never had to build — admission control instead of unbounded
// blocking, deadline-aware dispatch that fails stale work fast, hedged
// offloading, runtime metrics, and a graceful shutdown that drains queues
// and persists what each engine learned.
//
// The gateway deliberately preserves the paper's per-decision semantics:
// every executed request goes through Engine.Step — observe, select
// epsilon-greedily, execute, reward, stage the Q update — so engines keep
// learning online under production traffic exactly as they do in the
// single-stream experiments.
package serve

import (
	"errors"
	"fmt"
	"time"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/fault"
	"autoscale/internal/policy"
	"autoscale/internal/sim"
	"autoscale/internal/trace"
	"autoscale/internal/tracez"
)

// Sentinel errors surfaced on rejected or failed requests.
var (
	// ErrClosed is returned by Submit after Shutdown has begun.
	ErrClosed = errors.New("serve: gateway closed")
	// ErrQueueFull marks a request shed by admission control.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDeadlineExpired marks a request whose deadline passed before
	// execution.
	ErrDeadlineExpired = errors.New("serve: deadline expired")
	// ErrUnknownDevice marks a request routed to a device the gateway does
	// not serve.
	ErrUnknownDevice = errors.New("serve: unknown device")
	// ErrShardDown marks a request stranded in a killed gateway's queues: a
	// crashed shard rejects its queued work instead of executing it, so the
	// routing tier can fail the request over to a surviving shard.
	ErrShardDown = errors.New("serve: shard down")
)

// Status is the terminal outcome of a request.
type Status int

// Request outcomes.
const (
	// StatusServed: the request executed (possibly on a hedge's local leg).
	StatusServed Status = iota
	// StatusShed: admission control rejected the request on a full queue.
	StatusShed
	// StatusExpired: the deadline passed before execution; the request
	// never ran.
	StatusExpired
	// StatusFailed: execution returned an error, or routing failed.
	StatusFailed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusServed:
		return "served"
	case StatusShed:
		return "shed"
	case StatusExpired:
		return "expired"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Request is one inference to serve.
type Request struct {
	// Model is the network to run.
	Model *dnn.Model
	// Conditions is the stochastic runtime variance at this request.
	Conditions sim.Conditions
	// Deadline, when non-zero, is the latest useful completion time: a
	// request still queued past it is failed fast, never executed.
	Deadline time.Time
	// Device pins the request to a named worker; empty routes to the
	// least-loaded queue.
	Device string
	// Tenant is the fairness class the request is billed to. The gateway
	// itself only records it (metrics, trace attribution); the routing tier
	// uses it for weighted admission across shards.
	Tenant string
	// ArrivalS, when positive, is the request's virtual arrival stamp on the
	// engines' clock scale (seconds of accumulated service time). Load
	// generators that stamp it get deterministic queueing semantics: the
	// gateway records vwait = max(0, lane clock - ArrivalS), the routing
	// tier's admission gates compare the estimated backlog against per-class
	// wait bounds, and the capacity planner ticks on it. Zero disables
	// virtual-wait accounting.
	ArrivalS float64
	// Trace is the request's causal-trace handle; nil means untraced. The
	// routing tier starts it at admission so one span tree covers the whole
	// path (admit, dispatch, queue, decide, execute, recovery legs); a
	// standalone gateway with a Tracer configured starts one at submit. All
	// handle methods are nil-safe, so serving code annotates unconditionally.
	Trace *tracez.Active
}

// Response is the terminal outcome delivered on the request's channel.
type Response struct {
	// Status classifies the outcome.
	Status Status
	// Device is the worker that handled the request (empty when rejected at
	// admission before routing).
	Device string
	// Decision is the engine step for served requests (zero otherwise —
	// shed and expired requests never execute).
	Decision core.Decision
	// Outage marks a simulated radio outage absorbed by the sim's local
	// fallback during execution.
	Outage bool
	// Hedged marks that a local hedge leg raced the remote answer;
	// HedgeWon marks that the hedge leg finished first.
	Hedged   bool
	HedgeWon bool
	// Err carries the rejection or execution error (nil for clean serves).
	Err error
	// SubmittedAt / DoneAt bracket the request's life in the gateway, on
	// the gateway clock. SubmittedAt is the admission reading; for a served
	// or failed request DoneAt is the decide-end reading, taken right after
	// the engine step, and for a rejected one the reading at rejection.
	SubmittedAt time.Time
	DoneAt      time.Time
	// WaitS is the queue wait, admission to serve start, in gateway-clock
	// seconds.
	WaitS float64
	// VWaitS is the virtual queue wait — the serving lane's clock minus the
	// request's ArrivalS at execution start, floored at zero. Always zero
	// for unstamped requests and for requests terminated before execution.
	VWaitS float64
}

// ShedPolicy selects which request a full queue sacrifices.
type ShedPolicy int

// Shed policies.
const (
	// ShedNewest rejects the arriving request (default): queued work is
	// older and closer to its deadline, so it keeps its slot.
	ShedNewest ShedPolicy = iota
	// ShedOldest evicts the oldest queued request to admit the new one:
	// under overload the freshest request has the best chance of meeting
	// its deadline.
	ShedOldest
)

// String returns the policy name.
func (p ShedPolicy) String() string {
	if p == ShedOldest {
		return "oldest"
	}
	return "newest"
}

// Config tunes a Gateway.
type Config struct {
	// Name labels the gateway in multi-shard deployments: traces record it
	// as the serving shard, and the routing tier's admin endpoint keys
	// per-shard documents by it. Empty is fine for a standalone gateway.
	Name string
	// QueueDepth bounds each worker's queue (default 64).
	QueueDepth int
	// Shed selects the admission-control victim on a full queue.
	Shed ShedPolicy
	// Checkpoints, when non-nil, connects the gateway to the policy plane
	// (it replaces the old ad-hoc Snapshot flush callback). New warm-starts
	// every worker from its device's latest valid checkpoint — falling back
	// to the fleet's merged policy for the engine's config hash — and
	// Shutdown persists each worker's final table exactly once after the
	// queues drain. Federation passes (checkpoint and merge on the virtual
	// clock) belong to the routing tier's syncer, which reaches the
	// workers through PolicyNodes.
	Checkpoints policy.Sink
	// PolicySync tunes the retry/backoff of the shutdown flush's saves
	// (zero values mean policy defaults); a gateway runs no sync passes,
	// so its Interval and Unreachable are unused.
	PolicySync policy.SyncConfig
	// Clock overrides the gateway's time source (tests). By default the
	// gateway reads the wall clock once at construction and offsets that
	// reading by the monotonic time elapsed since.
	Clock func() time.Time
	// Hedge enables hedged offloads: when a remote answer is slower than
	// 25 ms (hedgeAfterS) and the deadline budget allows, a local leg races
	// it and the earlier answer wins. An outage is not retried: the sim's local
	// fallback answers it, and the engine learns from its cost.
	Hedge bool
	// Faults, when non-nil, is the scripted fault injector: New installs it
	// on every backend world that has none, and each worker drills the
	// injector's crash/corruption events for its device. The injector's
	// window faults (outages, ramps, spikes, throttles) act inside the sim.
	Faults *fault.Injector
	// Trace, when non-nil, receives one decision record per served request
	// — the per-request decision log the replay tests compare.
	Trace *trace.Writer
	// Tracer, when non-nil, switches on the causal tracing plane: requests
	// not already carrying a trace handle get one at submit, and served
	// requests accumulate a span tree (queue, decide with decision
	// provenance, execute, hedge). The tracer owns its own
	// RNG root, so enabling it never perturbs the engines' deterministic
	// streams.
	Tracer *tracez.Tracer
	// Recorder is read by nothing in the gateway; it is kept, unchanged,
	// because the benchmark's chaos fleet (bench/chaos.go:112) sets it. The
	// incident flight recorder is wired on router.Config, where the
	// supervision and planning tiers note their events.
	Recorder *tracez.FlightRecorder
}

// Backend pairs a device name with its (typically warm-started) engine.
type Backend struct {
	Device string
	Engine *core.Engine
}

func (c Config) queueDepth() int {
	if c.QueueDepth == 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) validate() error {
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: negative queue depth %d", c.QueueDepth)
	}
	if c.Shed != ShedNewest && c.Shed != ShedOldest {
		return fmt.Errorf("serve: unknown shed policy %d", c.Shed)
	}
	return nil
}
