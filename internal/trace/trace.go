// Package trace records and replays AutoScale decision streams as JSON
// Lines. A deployed scheduler wants an audit trail — which target served
// each request, what it cost, whether QoS held — that survives the process
// and can be summarized offline; this package provides the writer, reader
// and summarizer, and the engine's Decision converts straight into a Record.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/sim"
)

// SchemaV is the current record schema version. Version 2 added the Shard
// and Tenant attribution fields for the cluster-scale routing tier; version
// 3 added VWaitS, the virtual queue wait of arrival-stamped requests;
// version 4 added TraceID, linking the audit record to its causal span tree
// in the tracez plane. Records without a "v" field are version 1; every
// earlier-version record is a valid current-version record with the new
// fields zero, so old traces keep parsing and summarizing unchanged.
const SchemaV = 4

// Record is one scheduled inference, flattened for the log.
type Record struct {
	// V is the record schema version (see SchemaV). Zero means version 1 —
	// a record written before the field existed.
	V int `json:"v,omitempty"`
	// Seq is the request sequence number within the trace.
	Seq int `json:"seq"`
	// Model is the network name.
	Model string `json:"model"`
	// State is the Q-table state key observed (Table I bins).
	State string `json:"state"`
	// Target is the executed action (e.g. "local/DSP@0/INT8").
	Target string `json:"target"`
	// Location is the coarse execution location.
	Location string `json:"location"`
	// LatencyS, EnergyJ and Reward are the measured outcome.
	LatencyS float64 `json:"latency_s"`
	EnergyJ  float64 `json:"energy_j"`
	Reward   float64 `json:"reward"`
	// QoSViolated / AccuracyMissed flag constraint misses.
	QoSViolated    bool `json:"qos_violated"`
	AccuracyMissed bool `json:"accuracy_missed,omitempty"`
	// Device is the serving worker (gateway traces only).
	Device string `json:"device,omitempty"`
	// Shard is the gateway shard that served the request (routing-tier
	// traces only), so per-request phase decomposition attributes latency to
	// the shard that produced it. Tenant is the fairness class the request
	// was admitted under. Both are schema v2 fields.
	Shard  string `json:"shard,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Outage marks a simulated offload outage absorbed by the sim's local
	// fallback. Records written before circuit breakers, offload retries
	// and hedged offloads were removed may also carry "degraded", "retries"
	// and "hedged"; readers ignore all three.
	Outage bool `json:"outage,omitempty"`
	// WastedJ is the energy burned on failed offload attempts, already
	// included in EnergyJ.
	WastedJ float64 `json:"wasted_j,omitempty"`
	// VWaitS is the request's virtual queue wait (lane clock minus arrival
	// stamp at execution start) — deterministic, so it stays in the
	// byte-identical replay surface. Zero for unstamped requests. Schema v3.
	VWaitS float64 `json:"vwait_s,omitempty"`
	// Phases decomposes the request's execution into per-phase seconds
	// (obs.Phases names the keys). Only deterministic virtual-clock legs are
	// recorded — wall-clock waits stay out so replayed traces stay
	// byte-identical. Absent for records without phase instrumentation.
	Phases map[string]float64 `json:"phases,omitempty"`
	// TraceID links this record to its span tree in the tracez causal
	// tracing plane (the /traces admin endpoints). Zero for untraced
	// requests. Schema v4.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// FromDecision flattens an engine decision into a Record.
func FromDecision(seq int, model string, d core.Decision) Record {
	return Record{
		V:              SchemaV,
		Seq:            seq,
		Model:          model,
		State:          string(d.State),
		Target:         d.Target.String(),
		Location:       d.Target.Location.String(),
		LatencyS:       d.Measurement.LatencyS,
		EnergyJ:        d.Measurement.EnergyJ,
		Reward:         d.Reward,
		QoSViolated:    d.QoSViolated,
		AccuracyMissed: d.AccuracyMissed,
		WastedJ:        d.Measurement.WastedJ,
	}
}

// Writer appends records as JSON Lines. It is safe for concurrent use: a
// gateway's workers all log through one audit trail, so Append serializes
// internally and records never interleave mid-line.
//
// Write errors are sticky: once the underlying writer fails, every later
// Append, Flush and Close reports the first failure, so a trace whose tail
// was dropped can never pass for complete — the gateway surfaces the error
// at Shutdown instead of silently losing the audit tail.
type Writer struct {
	mu  sync.Mutex
	dst io.Writer
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewWriter wraps an io.Writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{dst: w, w: bw, enc: json.NewEncoder(bw)}
}

// Append writes one record.
func (t *Writer) Append(r Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.enc.Encode(r); err != nil {
		t.err = fmt.Errorf("trace: append: %w", err)
		return t.err
	}
	t.n++
	return nil
}

// AppendBatch writes a slice of records under one lock acquisition — the
// gateway's workers buffer records per request batch and drain them here,
// so a loaded trace pays the writer's mutex once per batch instead of once
// per record. Records land contiguously: no other worker's records can
// interleave inside a batch. On a write error the batch stops at the
// failing record and the error sticks, exactly as if the records had been
// appended one at a time.
func (t *Writer) AppendBatch(recs []Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	for i := range recs {
		if err := t.enc.Encode(recs[i]); err != nil {
			t.err = fmt.Errorf("trace: append: %w", err)
			return t.err
		}
		t.n++
	}
	return nil
}

// Count returns the number of records appended.
func (t *Writer) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Err returns the sticky write error, if any.
func (t *Writer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush drains the buffer to the underlying writer. It reports the first
// error the writer ever hit, so a final Flush is a completeness check for
// the whole trace, not just the buffered tail.
func (t *Writer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Writer) flushLocked() error {
	if t.err != nil {
		return t.err
	}
	if err := t.w.Flush(); err != nil {
		t.err = fmt.Errorf("trace: flush: %w", err)
	}
	return t.err
}

// Close flushes and, when the underlying writer is an io.Closer, closes it.
// Like Flush it surfaces the sticky error; a failed close also sticks, and
// repeated Closes report the same result.
func (t *Writer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	flushErr := t.flushLocked()
	if c, ok := t.dst.(io.Closer); ok {
		t.dst = nil // close once
		if err := c.Close(); err != nil && t.err == nil {
			t.err = fmt.Errorf("trace: close: %w", err)
		}
	}
	if flushErr != nil {
		return flushErr
	}
	return t.err
}

// ReadAll decodes a JSON Lines trace.
func ReadAll(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		if len(rec.Phases) == 0 {
			// "phases":{} is a record without phases, which is how Writer
			// renders it back.
			rec.Phases = nil
		}
		out = append(out, rec)
	}
}

// Summary aggregates a trace.
type Summary struct {
	Records        int
	TotalEnergyJ   float64
	MeanLatencyS   float64
	ViolationRatio float64
	// ByLocation is the decision share per execution location.
	ByLocation map[string]float64
	// ByModel is the record count per model.
	ByModel map[string]int
}

// Summarize computes the aggregate view of a trace.
func Summarize(records []Record) Summary {
	s := Summary{
		ByLocation: make(map[string]float64),
		ByModel:    make(map[string]int),
	}
	if len(records) == 0 {
		return s
	}
	var latency float64
	var viol int
	for _, r := range records {
		s.TotalEnergyJ += r.EnergyJ
		latency += r.LatencyS
		if r.QoSViolated {
			viol++
		}
		s.ByLocation[r.Location]++
		s.ByModel[r.Model]++
	}
	s.Records = len(records)
	s.MeanLatencyS = latency / float64(len(records))
	s.ViolationRatio = float64(viol) / float64(len(records))
	for loc := range s.ByLocation {
		s.ByLocation[loc] /= float64(len(records))
	}
	return s
}

// RecordingPolicy adapts an engine to the sched.Policy interface while
// appending every decision to a trace. Like the Writer it wraps, it is safe
// for concurrent use; sequence numbers are unique but records may land in
// the log out of sequence order under concurrency.
type RecordingPolicy struct {
	Engine *core.Engine
	Out    *Writer
	seq    atomic.Int64
}

// Name implements sched.Policy.
func (p *RecordingPolicy) Name() string { return "AutoScale (traced)" }

// RunCtx implements sched.Policy: one engine step, recorded.
func (p *RecordingPolicy) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	d, err := p.Engine.RunInferenceCtx(ctx, m, c)
	if err != nil {
		return sim.Measurement{}, err
	}
	rec := FromDecision(int(p.seq.Add(1)-1), m.Name, d)
	if err := p.Out.Append(rec); err != nil {
		return sim.Measurement{}, err
	}
	return d.Measurement, nil
}
