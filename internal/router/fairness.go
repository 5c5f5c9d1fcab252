package router

import (
	"sort"
	"sync/atomic"
)

// Deficit round-robin over per-tenant queues: each tenant earns `weight`
// credits per rotation and spends one per dispatched request (every request
// has unit cost in this tier — the shards account real latency and energy),
// so under saturating load tenants are served in proportion to their
// weights, while an idle tenant's unused credit evaporates rather than
// accruing into a burst.

// tenantQueue is one tenant's FIFO plus its DRR accounting.
type tenantQueue struct {
	name    string
	weight  int
	deficit int

	// depth, when positive, overrides the router's default per-tenant queue
	// bound — the capacity planner's admission-depth actuator.
	depth int
	// maxVWaitS, when positive, is the tenant's admission gate: an
	// arrival-stamped request is shed when the estimated backlog exceeds it.
	// Ordering the bounds by class (tightest for best-effort, loosest for
	// gold) makes overload shed strictly lowest class first.
	maxVWaitS float64

	// FIFO as a head-indexed slice: pops advance head, a fully drained queue
	// resets to reuse its backing array, so steady-state traffic stops
	// allocating once the array has grown to the working set.
	q    []*rreq
	head int

	// Admission accounting (guarded by the router's queue lock).
	admitted uint64
	shed     uint64
}

func (tq *tenantQueue) size() int { return len(tq.q) - tq.head }

func (tq *tenantQueue) push(r *rreq) { tq.q = append(tq.q, r) }

func (tq *tenantQueue) pop() *rreq {
	r := tq.q[tq.head]
	tq.q[tq.head] = nil
	tq.head++
	if tq.head == len(tq.q) {
		tq.q = tq.q[:0]
		tq.head = 0
	}
	return r
}

// popOldest evicts the head request (the ShedOldest victim).
func (tq *tenantQueue) popOldest() *rreq { return tq.pop() }

// popNewest evicts the tail request (the ShedNewest victim when a planner
// shrinks the queue under load: the youngest arrivals lose their slots, the
// oldest keep their place in line).
func (tq *tenantQueue) popNewest() *rreq {
	r := tq.q[len(tq.q)-1]
	tq.q[len(tq.q)-1] = nil
	tq.q = tq.q[:len(tq.q)-1]
	if tq.head == len(tq.q) {
		tq.q = tq.q[:0]
		tq.head = 0
	}
	return r
}

// drr multiplexes tenant queues with deficit round-robin.
type drr struct {
	byName map[string]*tenantQueue
	order  []*tenantQueue // rotation order: sorted by name, fixed at build
	cur    int            // rotation cursor

	// queued totals the requests across queues. Written under the router's
	// queue lock; completions and Shutdown read it without.
	queued atomic.Int64
}

// newDRR builds the scheduler. Weights below 1 are raised to 1 so every
// tenant makes progress each rotation.
func newDRR(tenants []Tenant) *drr {
	d := &drr{byName: make(map[string]*tenantQueue, len(tenants))}
	for _, t := range tenants {
		w := t.Weight
		if w < 1 {
			w = 1
		}
		if _, dup := d.byName[t.Name]; dup {
			continue
		}
		tq := &tenantQueue{name: t.Name, weight: w}
		d.byName[t.Name] = tq
		d.order = append(d.order, tq)
	}
	sort.Slice(d.order, func(i, j int) bool { return d.order[i].name < d.order[j].name })
	return d
}

// queue returns the tenant's queue, or nil for an unknown tenant.
func (d *drr) queue(tenant string) *tenantQueue { return d.byName[tenant] }

// push enqueues one request on its tenant queue (admission already checked
// depth and shed policy).
func (d *drr) push(tq *tenantQueue, r *rreq) {
	tq.push(r)
	d.queued.Add(1)
}

// pick dequeues the next request under DRR, or nil when everything is empty.
// Advancing onto a backlogged queue recharges its deficit by its weight;
// a queue that empties (or is visited empty) forfeits its remaining deficit,
// so credit never accrues across idle periods.
func (d *drr) pick() *rreq {
	if d.queued.Load() == 0 {
		return nil
	}
	for {
		tq := d.order[d.cur]
		if tq.size() > 0 && tq.deficit >= 1 {
			tq.deficit--
			r := tq.pop()
			d.queued.Add(-1)
			if tq.size() == 0 {
				tq.deficit = 0
			}
			return r
		}
		if tq.size() == 0 {
			tq.deficit = 0
		}
		d.cur = (d.cur + 1) % len(d.order)
		if next := d.order[d.cur]; next.size() > 0 {
			next.deficit += next.weight
		}
	}
}
