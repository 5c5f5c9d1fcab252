package tracez

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// IndexEntry is one row of the /traces index.
type IndexEntry struct {
	ID      uint64   `json:"id"`
	Model   string   `json:"model"`
	Tenant  string   `json:"tenant,omitempty"`
	Shard   string   `json:"shard,omitempty"`
	Status  string   `json:"status,omitempty"`
	StartS  float64  `json:"start_s"`
	Spans   int      `json:"spans"`
	Flags   []string `json:"flags,omitempty"`
	Sampled bool     `json:"head_sampled,omitempty"`
	HasProv bool     `json:"has_prov,omitempty"`
}

// Index is the /traces document: sampling counters plus one row per kept
// trace, oldest first.
type Index struct {
	Stats  Stats        `json:"stats"`
	Traces []IndexEntry `json:"traces"`
}

// IndexJSON renders the /traces index document.
func (tr *Tracer) IndexJSON() ([]byte, error) {
	idx := Index{Stats: tr.Stats()}
	for _, t := range tr.Kept() {
		idx.Traces = append(idx.Traces, IndexEntry{
			ID:      t.ID,
			Model:   t.Model,
			Tenant:  t.Tenant,
			Shard:   t.Shard,
			Status:  t.Status,
			StartS:  t.StartS,
			Spans:   len(t.Spans),
			Flags:   FlagNames(t.Flags),
			Sampled: t.Sampled,
			HasProv: t.HasProv,
		})
	}
	return json.MarshalIndent(idx, "", "  ")
}

// TraceJSON renders one kept trace as raw JSON.
func (tr *Tracer) TraceJSON(id uint64) ([]byte, error) {
	t, ok := tr.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("tracez: no kept trace %d", id)
	}
	return json.MarshalIndent(t, "", "  ")
}

// chromeEvent is one Chrome trace-event (the chrome://tracing and Perfetto
// import format). Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeJSON exports kept traces as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. id 0 exports every kept trace; a non-zero
// id exports that trace only. Each trace renders as one thread (tid =
// trace ID) whose spans are laid out cumulatively from the request's
// virtual arrival time — an honest picture of a sequential request
// lifecycle. The decide span carries the decision provenance in its args.
func (tr *Tracer) ChromeJSON(id uint64) ([]byte, error) {
	traces := tr.snapshot(id)
	if id != 0 && len(traces) == 0 {
		return nil, fmt.Errorf("tracez: no kept trace %d", id)
	}
	events := make([]chromeEvent, 0, 2*len(traces))
	for _, t := range traces {
		label := fmt.Sprintf("trace %d %s status=%s", t.ID, t.Model, t.Status)
		if names := FlagNames(t.Flags); len(names) > 0 {
			label += fmt.Sprintf(" flags=%v", names)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: t.ID,
			Args: map[string]any{"name": label},
		})
		ts := t.StartS * 1e6
		for _, s := range t.Spans {
			ev := chromeEvent{Name: s.Name, Ph: "X", Ts: ts, Dur: s.DurS * 1e6, Pid: 1, Tid: t.ID}
			if s.Detail != "" {
				ev.Args = map[string]any{"detail": s.Detail}
			}
			if s.Name == "decide" && t.HasProv {
				if ev.Args == nil {
					ev.Args = map[string]any{}
				}
				ev.Args["state_idx"] = t.Prov.StateIdx
				ev.Args["state"] = t.Prov.State
				ev.Args["epsilon"] = t.Prov.Epsilon
				ev.Args["explored"] = t.Prov.Explored
				ev.Args["frozen"] = t.Prov.Frozen
				ev.Args["action"] = t.Prov.Action
				ev.Args["action_idx"] = t.Prov.ActionIdx
				ev.Args["q"] = t.Prov.Q
				ev.Args["mask"] = t.Prov.Mask
				ev.Args["masked_out"] = t.Prov.MaskedOut
			}
			events = append(events, ev)
			ts += ev.Dur
		}
	}
	return json.Marshal(map[string]any{"traceEvents": events})
}

// Binary dump format: a compact varint encoding for incident archival.
//
//	magic "ATRZ" | version byte | uvarint trace count | traces...
//
// Strings are uvarint length + bytes, floats are IEEE 754 bits in 8-byte
// little-endian, bools are single bytes.
const (
	binMagic   = "ATRZ"
	binVersion = 1
)

// Binary encodes kept traces in the compact binary dump format. id 0
// encodes every kept trace.
func (tr *Tracer) Binary(id uint64) ([]byte, error) {
	traces := tr.snapshot(id)
	if id != 0 && len(traces) == 0 {
		return nil, fmt.Errorf("tracez: no kept trace %d", id)
	}
	return EncodeBinary(traces), nil
}

type binWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *binWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *binWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(v))
	w.buf.Write(w.tmp[:8])
}

func (w *binWriter) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf.WriteByte(b)
}

// EncodeBinary renders traces in the compact binary dump format.
func EncodeBinary(traces []Trace) []byte {
	var w binWriter
	w.buf.WriteString(binMagic)
	w.buf.WriteByte(binVersion)
	w.uvarint(uint64(len(traces)))
	for _, t := range traces {
		w.uvarint(t.ID)
		w.str(t.Model)
		w.str(t.Tenant)
		w.str(t.Shard)
		w.str(t.Status)
		w.f64(t.StartS)
		w.buf.WriteByte(t.Flags)
		w.bool(t.Sampled)
		w.uvarint(uint64(len(t.Spans)))
		for _, s := range t.Spans {
			w.str(s.Name)
			w.f64(s.DurS)
			w.str(s.Detail)
		}
		w.bool(t.HasProv)
		if t.HasProv {
			w.uvarint(uint64(uint32(t.Prov.StateIdx)))
			w.str(t.Prov.State)
			w.f64(t.Prov.Epsilon)
			w.bool(t.Prov.Frozen)
			w.bool(t.Prov.Explored)
			w.str(t.Prov.Action)
			w.uvarint(uint64(t.Prov.ActionIdx))
			w.uvarint(uint64(t.Prov.MaskedOut))
			w.uvarint(uint64(len(t.Prov.Q)))
			for _, q := range t.Prov.Q {
				w.f64(q)
			}
			w.uvarint(uint64(len(t.Prov.Mask)))
			for _, m := range t.Prov.Mask {
				w.bool(m)
			}
		}
	}
	return w.buf.Bytes()
}

type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errors.New("tracez: truncated binary dump")
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *binReader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *binReader) bool() bool { return r.byte() != 0 }

// DecodeBinary parses a compact binary dump back into traces.
func DecodeBinary(b []byte) ([]Trace, error) {
	if len(b) < len(binMagic)+1 || string(b[:len(binMagic)]) != binMagic {
		return nil, errors.New("tracez: not a binary trace dump")
	}
	if b[len(binMagic)] != binVersion {
		return nil, fmt.Errorf("tracez: unsupported binary dump version %d", b[len(binMagic)])
	}
	r := &binReader{b: b, off: len(binMagic) + 1}
	count := r.uvarint()
	if count > uint64(len(b)) {
		return nil, errors.New("tracez: implausible trace count")
	}
	traces := make([]Trace, 0, count)
	for i := uint64(0); i < count && r.err == nil; i++ {
		var t Trace
		t.ID = r.uvarint()
		t.Model = r.str()
		t.Tenant = r.str()
		t.Shard = r.str()
		t.Status = r.str()
		t.StartS = r.f64()
		t.Flags = r.byte()
		t.Sampled = r.bool()
		nspans := r.uvarint()
		if nspans > uint64(len(b)) {
			return nil, errors.New("tracez: implausible span count")
		}
		for j := uint64(0); j < nspans && r.err == nil; j++ {
			var s Span
			s.Name = r.str()
			s.DurS = r.f64()
			s.Detail = r.str()
			t.Spans = append(t.Spans, s)
		}
		t.HasProv = r.bool()
		if t.HasProv {
			t.Prov.StateIdx = int32(uint32(r.uvarint()))
			t.Prov.State = r.str()
			t.Prov.Epsilon = r.f64()
			t.Prov.Frozen = r.bool()
			t.Prov.Explored = r.bool()
			t.Prov.Action = r.str()
			t.Prov.ActionIdx = int(r.uvarint())
			t.Prov.MaskedOut = int(r.uvarint())
			nq := r.uvarint()
			if nq > uint64(len(b)) {
				return nil, errors.New("tracez: implausible Q length")
			}
			for j := uint64(0); j < nq && r.err == nil; j++ {
				t.Prov.Q = append(t.Prov.Q, r.f64())
			}
			nm := r.uvarint()
			if nm > uint64(len(b)) {
				return nil, errors.New("tracez: implausible mask length")
			}
			for j := uint64(0); j < nm && r.err == nil; j++ {
				t.Prov.Mask = append(t.Prov.Mask, r.bool())
			}
		}
		traces = append(traces, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	return traces, nil
}
