package tracez

import (
	"encoding/json"
	"fmt"
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
