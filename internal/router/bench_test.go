package router

import (
	"fmt"
	"testing"
)

// BenchmarkRouterDispatch measures the routing tier's per-request hot path in
// isolation — one consistent-hash lookup plus one DRR enqueue/dequeue — which
// must stay near-zero-alloc so the tier adds no allocation pressure on top of
// the shards' own serving path.
func BenchmarkRouterDispatch(b *testing.B) {
	shards := make([]string, 8)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	r := newRing(shards)
	d := newDRR([]Tenant{{"gold", 4}, {"silver", 2}, {"best", 1}})
	tenants := []string{"gold", "silver", "best"}
	devices := make([]string, 64)
	reqs := make([]*rreq, len(tenants))
	for i := range devices {
		devices[i] = fmt.Sprintf("device-%d", i)
	}
	for i, tn := range tenants {
		reqs[i] = drrReq(tn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.lookup(devices[i&63]) == "" {
			b.Fatal("lookup missed")
		}
		rq := reqs[i%len(tenants)]
		d.push(d.queue(rq.req.Tenant), rq)
		if d.pick() == nil {
			b.Fatal("pick missed")
		}
	}
}

// BenchmarkRingLookup isolates the consistent-hash lookup (inlined FNV-1a
// plus binary search) — the placement primitive both admission and re-homing
// lean on.
func BenchmarkRingLookup(b *testing.B) {
	shards := make([]string, 16)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	r := newRing(shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.lookup("device-42") == "" {
			b.Fatal("lookup missed")
		}
	}
}
