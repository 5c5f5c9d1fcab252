package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program (or derived from harness timestamps and Response fields). Spans of
// one request share Req; Parent links a child to the span that caused it.
// Calls > 1 marks a ladder span covering a batch of identical calls.
type span struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	Name    string `json:"name"`
	Req     uint32 `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int    `json:"calls,omitempty"`
}

// spanBuf is a preallocated span slice owned by one goroutine; nothing is
// written out until the pass ends. Once full it silently stops recording:
// the per-request duration samples, not the spans, feed the metrics.
type spanBuf struct {
	base   time.Time
	idBase uint32
	spans  []span
}

// maxSpansPerClient bounds each client's span buffer (the first 20k
// requests at five spans each): enough to inspect, small enough to write.
const maxSpansPerClient = 100_000

func newSpanBuf(base time.Time, client int) *spanBuf {
	return &spanBuf{base: base, idBase: uint32(client) << 28, spans: make([]span, 0, maxSpansPerClient)}
}

func (b *spanBuf) full() bool { return len(b.spans) == cap(b.spans) }

func (b *spanBuf) add(parent uint32, name string, req uint32, start, end time.Time, calls int) uint32 {
	if b.full() {
		return 0
	}
	id := b.idBase + uint32(len(b.spans)) + 1
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		StartNS: int64(start.Sub(b.base)), EndNS: int64(end.Sub(b.base)), Calls: calls,
	})
	return id
}

// tracePass is the traced pass's recorder: the per-client span buffers and,
// for every request, the four outside-in durations in nanoseconds.
type tracePass struct {
	bufs []*spanBuf
	// dispatch: harness submit -> gateway SubmittedAt; queue: Response.WaitS;
	// service: DoneAt - SubmittedAt - WaitS; ret: DoneAt -> harness receive.
	dispatch, queue, service, ret [][]int32
}

func newTracePass(clients, perClient int) *tracePass {
	base := time.Now()
	tp := &tracePass{}
	for c := 0; c < clients; c++ {
		tp.bufs = append(tp.bufs, newSpanBuf(base, c))
		tp.dispatch = append(tp.dispatch, make([]int32, 0, perClient))
		tp.queue = append(tp.queue, make([]int32, 0, perClient))
		tp.service = append(tp.service, make([]int32, 0, perClient))
		tp.ret = append(tp.ret, make([]int32, 0, perClient))
	}
	return tp
}

// request records one served request's outside-in breakdown for client c.
func (tp *tracePass) request(c int, req uint32, submit, recv time.Time, submittedAt, doneAt time.Time, waitS float64) {
	wait := time.Duration(waitS * float64(time.Second))
	started := submittedAt.Add(wait)
	tp.dispatch[c] = append(tp.dispatch[c], int32(submittedAt.Sub(submit)))
	tp.queue[c] = append(tp.queue[c], int32(wait))
	tp.service[c] = append(tp.service[c], int32(doneAt.Sub(started)))
	tp.ret[c] = append(tp.ret[c], int32(recv.Sub(doneAt)))
	b := tp.bufs[c]
	if cap(b.spans)-len(b.spans) < 5 {
		return
	}
	root := b.add(0, "request", req, submit, recv, 0)
	b.add(root, "router.dispatch", req, submit, submittedAt, 0)
	b.add(root, "serve.queue", req, submittedAt, started, 0)
	b.add(root, "serve.service", req, started, doneAt, 0)
	b.add(root, "router.return", req, doneAt, recv, 0)
}

// writeSpans dumps the recorded spans as <outDir>/<workload>.trace.json.
func writeSpans(outDir, workload string, bufs ...*spanBuf) error {
	var all []span
	for _, b := range bufs {
		all = append(all, b.spans...)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, all})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, workload+".trace.json"), data, 0o644)
}
