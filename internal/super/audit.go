package super

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"autoscale/internal/policy"
	"autoscale/internal/router"
)

// Auditor asserts the chaos-soak invariants, during the storm (Observe) and
// after it settles (Final). It is deliberately dumb: it recomputes every
// invariant from public accessors rather than trusting any component's own
// bookkeeping, so a conservation bug in the router or a CRC bug in the store
// surfaces as a violation instead of passing silently.
//
// Invariants checked:
//
//   - Virtual clocks are monotone per (shard, incarnation) — a revived
//     gateway legitimately restarts at zero, so the incarnation counter
//     scopes the check.
//   - Requests are conserved exactly once at the router:
//     Submitted == Shed + Failed + Completed when the system is quiet.
//   - The router's in-flight gauge returns to zero.
//   - Every surviving checkpoint envelope parses with a valid CRC (the
//     store's Latest either succeeds or reports ErrNoCheckpoint; anything
//     else means an undetected-corruption escape).
//
// Goroutine-leak and exactly-one-response-per-request checks live in the
// driving test, which owns the request futures and the process baseline.
type Auditor struct {
	rt    *router.Router
	store *policy.Store

	mu     sync.Mutex
	clocks map[string]clockMark
	viols  []string
}

type clockMark struct {
	incarnation int
	virtualS    float64
}

// NewAuditor builds an auditor over a router and (optionally) the raw
// checkpoint store backing it. Pass the *policy.Store itself, not a fault
// sink wrapping it — the final CRC sweep must see real I/O.
func NewAuditor(rt *router.Router, store *policy.Store) (*Auditor, error) {
	if rt == nil {
		return nil, errors.New("super: nil router")
	}
	return &Auditor{rt: rt, store: store, clocks: make(map[string]clockMark)}, nil
}

func (a *Auditor) violate(format string, args ...any) {
	a.viols = append(a.viols, fmt.Sprintf(format, args...))
}

// Observe samples the mid-storm invariants; call it from the driving loop as
// often as desired (each supervision tick is the natural cadence). It reads
// only the shards' lifecycle and clocks, never their metrics registries, so
// a pass does not hold up the lanes' metric writes. The clocks are sampled
// under the auditor's lock, so concurrent callers compare and record marks
// in the order they sampled them.
func (a *Auditor) Observe() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sig := range a.rt.ShardClocks() {
		mark, ok := a.clocks[sig.Name]
		if ok && mark.incarnation == sig.Incarnation && sig.VirtualS < mark.virtualS {
			a.violate("shard %s incarnation %d: virtual clock moved backwards (%.6f -> %.6f)",
				sig.Name, sig.Incarnation, mark.virtualS, sig.VirtualS)
		}
		a.clocks[sig.Name] = clockMark{incarnation: sig.Incarnation, virtualS: sig.VirtualS}
	}
}

// Final checks the post-storm invariants. Call it only after the last
// request's response has been received and background work has stopped.
func (a *Auditor) Final() {
	a.mu.Lock()
	defer a.mu.Unlock()

	rm := a.rt.RouterMetrics()
	if rm.Submitted != rm.Shed+rm.Failed+rm.Completed {
		a.violate("router conservation broken: submitted %d != shed %d + failed %d + completed %d",
			rm.Submitted, rm.Shed, rm.Failed, rm.Completed)
	}
	if n := a.rt.Inflight(); n != 0 {
		a.violate("router in-flight gauge did not settle: %d", n)
	}

	if a.store != nil {
		devices, err := a.store.Devices()
		if err != nil {
			a.violate("checkpoint store unreadable: %v", err)
			return
		}
		sort.Strings(devices)
		for _, dev := range devices {
			if _, err := a.store.Latest(dev); err != nil && !errors.Is(err, policy.ErrNoCheckpoint) {
				a.violate("checkpoint sweep %s: %v", dev, err)
			}
		}
	}
}

// Violations returns every invariant breach recorded so far; empty means the
// storm was clean.
func (a *Auditor) Violations() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.viols...)
}
