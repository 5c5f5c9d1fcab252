package tracez

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Event is one structured entry in the flight recorder's ring: supervisor
// ladder edges, planner actuations, checkpoint I/O verdicts. Times are virtual seconds.
type Event struct {
	AtS     float64 `json:"at_s"`
	Kind    string  `json:"kind"`
	Subject string  `json:"subject,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// FlightRecorder is the black box: a bounded structured-event ring plus the
// tracer's last-N kept traces, snapshotted to disk as a self-contained
// incident bundle whenever the supervisor fires a remediation. A nil
// *FlightRecorder is a valid disabled recorder — Note and Trigger are
// branch-only no-ops — so event sources can hold one unconditionally.
type FlightRecorder struct {
	tr       *Tracer
	dir      string
	maxEv    int
	maxDumps int

	mu     sync.Mutex
	events []Event
	next   int
	total  uint64
	dumps  int
	lastED error
}

// NewFlightRecorder builds a recorder over a tracer. dir is where incident
// bundles land ("" keeps the recorder in-memory only); maxEvents bounds the
// event ring (default 512) and maxDumps the number of bundles written per
// process (default 8), so a crash-looping fleet cannot fill the disk.
func NewFlightRecorder(tr *Tracer, dir string, maxEvents, maxDumps int) *FlightRecorder {
	if maxEvents <= 0 {
		maxEvents = 512
	}
	if maxDumps <= 0 {
		maxDumps = 8
	}
	return &FlightRecorder{tr: tr, dir: dir, maxEv: maxEvents, maxDumps: maxDumps}
}

// Note appends one event to the ring, evicting the oldest when full.
func (fr *FlightRecorder) Note(atS float64, kind, subject, detail string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	if len(fr.events) < fr.maxEv {
		fr.events = append(fr.events, Event{AtS: atS, Kind: kind, Subject: subject, Detail: detail})
	} else {
		fr.events[fr.next%fr.maxEv] = Event{AtS: atS, Kind: kind, Subject: subject, Detail: detail}
	}
	fr.next = (fr.next + 1) % fr.maxEv
	fr.total++
	fr.mu.Unlock()
}

// Events returns the ring's events in chronological order.
func (fr *FlightRecorder) Events() []Event {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.eventsLocked()
}

func (fr *FlightRecorder) eventsLocked() []Event {
	if len(fr.events) < fr.maxEv {
		return append([]Event(nil), fr.events...)
	}
	out := make([]Event, 0, len(fr.events))
	for i := 0; i < len(fr.events); i++ {
		out = append(out, fr.events[(fr.next+i)%fr.maxEv])
	}
	return out
}

// Bundle is one incident snapshot: the trigger, the event ring, and the
// tracer's kept traces at the moment of the trigger.
type Bundle struct {
	AtS    float64 `json:"at_s"`
	Reason string  `json:"reason"`
	Stats  Stats   `json:"stats"`
	Events []Event `json:"events,omitempty"`
	Traces []Trace `json:"traces,omitempty"`
}

// BundleJSON renders the incident bundle that Trigger would write, without
// touching the disk.
func (fr *FlightRecorder) BundleJSON(atS float64, reason string) ([]byte, error) {
	if fr == nil {
		return nil, fmt.Errorf("tracez: nil flight recorder")
	}
	b := Bundle{
		AtS:    atS,
		Reason: reason,
		Stats:  fr.tr.Stats(),
		Events: fr.Events(),
		Traces: fr.tr.Kept(),
	}
	return json.MarshalIndent(b, "", "  ")
}

// Trigger snapshots an incident bundle. With a dump directory configured it
// writes incident-NNNN.json (bounded by maxDumps; further triggers only
// count) and returns the path written, "" when no file landed. Trigger
// never blocks the caller on anything slower than one JSON encode and one
// file write.
func (fr *FlightRecorder) Trigger(atS float64, reason string) string {
	if fr == nil {
		return ""
	}
	fr.mu.Lock()
	fr.dumps++
	seq := fr.dumps
	write := fr.dir != "" && seq <= fr.maxDumps
	fr.mu.Unlock()
	if !write {
		return ""
	}
	body, err := fr.BundleJSON(atS, reason)
	if err != nil {
		fr.setErr(err)
		return ""
	}
	path := filepath.Join(fr.dir, fmt.Sprintf("incident-%04d.json", seq))
	if err := os.MkdirAll(fr.dir, 0o755); err != nil {
		fr.setErr(err)
		return ""
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		fr.setErr(err)
		return ""
	}
	return path
}

func (fr *FlightRecorder) setErr(err error) {
	fr.mu.Lock()
	fr.lastED = err
	fr.mu.Unlock()
}

// Dumps reports how many triggers fired and the last dump error, if any.
func (fr *FlightRecorder) Dumps() (int, error) {
	if fr == nil {
		return 0, nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.dumps, fr.lastED
}

// Tracer returns the recorder's tracer (nil on a nil recorder).
func (fr *FlightRecorder) Tracer() *Tracer {
	if fr == nil {
		return nil
	}
	return fr.tr
}
