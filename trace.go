package autoscale

import (
	"io"

	"autoscale/internal/trace"
)

// Decision tracing: an auditable JSON-Lines log of every scheduling
// decision.
type (
	// TraceRecord is one scheduled inference in the log.
	TraceRecord = trace.Record
	// TraceWriter appends records as JSON Lines.
	TraceWriter = trace.Writer
	// TraceSummary aggregates a trace.
	TraceSummary = trace.Summary
)

// NewTraceWriter wraps an io.Writer for decision logging.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// ReadTrace decodes a JSON-Lines decision trace.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.ReadAll(r) }

// SummarizeTrace aggregates a decision trace.
func SummarizeTrace(records []TraceRecord) TraceSummary { return trace.Summarize(records) }

// TracedPolicy adapts an engine to the Policy interface while logging every
// decision to the trace writer.
func TracedPolicy(e *Engine, w *TraceWriter) Policy {
	return &trace.RecordingPolicy{Engine: e, Out: w}
}
