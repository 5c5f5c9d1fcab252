package metrics

import (
	"fmt"
	"reflect"
	"testing"

	"autoscale/internal/exec"
	"autoscale/internal/obs"
	"autoscale/internal/sim"
)

// seededSnapshot drives a fresh registry through the mutators the gateway
// calls — a seed-derived mix of counter bumps, batched admission and served
// samples (histograms, per-phase/per-tenant observations, target and device
// counts) — and returns its snapshot. The tag keeps device labels disjoint
// between operands.
func seededSnapshot(seed uint64, tag string) Snapshot {
	rng := exec.NewRand(seed)
	r := New(tag + "-device")
	bump := []func(){
		r.IncSubmitted, r.IncShed, r.IncExpired, r.IncFailed,
		r.IncOutage, r.IncWorkerCrash,
	}
	for i, n := 0, 20+rng.Intn(60); i < n; i++ {
		bump[rng.Intn(len(bump))]()
		switch rng.Intn(4) {
		case 0:
			var phases obs.PhaseTotals
			phases.Add(obs.PhaseExecuteIdx, rng.ExpFloat64()*0.05)
			r.ObserveServed(ServedSample{
				QoSViolated: rng.Intn(4) == 0,
				LatencyS:    rng.ExpFloat64() * 0.05,
				EnergyJ:     rng.ExpFloat64(),
				Target:      sim.Connected,
				Phases:      phases,
			})
		case 1:
			r.ObserveAdmission(rng.ExpFloat64()*0.01, rng.ExpFloat64()*0.2, rng.Intn(2) == 0)
		case 2:
			r.ObservePhase(obs.PhaseDecideIdx, rng.ExpFloat64()*0.001)
		case 3:
			lat := rng.ExpFloat64() * 0.05
			r.ObserveServed(ServedSample{
				LatencyS:    lat,
				EnergyJ:     rng.ExpFloat64(),
				Tenant:      "tenant-" + string(rune('a'+rng.Intn(3))),
				TenantRespS: lat + rng.ExpFloat64()*0.1,
				Target:      sim.Local,
			})
		}
	}
	r.AddOutageWastedJ(rng.Float64())
	return r.Snapshot()
}

// TestMergeEmptyIdentity checks merging a zero-valued snapshot — from an
// untouched registry or a plain zero struct — changes nothing, regardless
// of operand order. Folding an untouched registry into a snapshot also
// allocates nothing: its histograms hold no observations, so they are the
// identity of the histogram add, buckets or not.
func TestMergeEmptyIdentity(t *testing.T) {
	untouched := New("")
	empties := map[string]Snapshot{
		"zero struct":        {},
		"untouched registry": untouched.Snapshot(),
	}
	for seed := uint64(1); seed <= 10; seed++ {
		s := seededSnapshot(seed, "x")
		want := Merge(s)
		for name, empty := range empties {
			if got := Merge(s, empty); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Merge(s, %s) != Merge(s)", seed, name)
			}
			if got := Merge(empty, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Merge(%s, s) != Merge(s)", seed, name)
			}
		}
		acc := Merge(s)
		if allocs := testing.AllocsPerRun(10, func() { untouched.AddTo(&acc) }); allocs != 0 {
			t.Fatalf("seed %d: folding an untouched registry allocates %v times", seed, allocs)
		}
		if !reflect.DeepEqual(acc, want) {
			t.Fatalf("seed %d: folding an untouched registry changed the snapshot", seed)
		}
	}
}

// TestMergeCommutative checks counter sums and bucket-wise histogram merges
// are order-independent over seeded snapshot pairs.
func TestMergeCommutative(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		a := seededSnapshot(seed, "a")
		b := seededSnapshot(seed+100, "b")
		ab, ba := Merge(a, b), Merge(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("seed %d: Merge(a, b) != Merge(b, a):\n%+v\nvs\n%+v", seed, ab, ba)
		}
		// Spot-check the histogram actually merged (not adopted from one
		// side): counts add up.
		if ab.Latency.Count != a.Latency.Count+b.Latency.Count {
			t.Fatalf("seed %d: merged latency count %d, want %d",
				seed, ab.Latency.Count, a.Latency.Count+b.Latency.Count)
		}
		if ab.VWait.Count != a.VWait.Count+b.VWait.Count {
			t.Fatalf("seed %d: merged vwait count %d, want %d",
				seed, ab.VWait.Count, a.VWait.Count+b.VWait.Count)
		}
	}
}

// TestMergeZeroFirstRegression pins the fixed edge case: a zero-valued
// first operand must not poison later histogram merges (the old code
// adopted the first snapshot's zero bucket scheme and then rejected every
// real histogram against it).
func TestMergeZeroFirstRegression(t *testing.T) {
	s := seededSnapshot(7, "x")
	if s.Latency.Count == 0 {
		t.Fatal("seeded snapshot recorded no latency; test is vacuous")
	}
	got := Merge(Snapshot{}, s, Snapshot{})
	if got.Latency.Count != s.Latency.Count {
		t.Fatalf("zero-first merge dropped latency: count %d, want %d", got.Latency.Count, s.Latency.Count)
	}
	if got.Latency.Sum != s.Latency.Sum {
		t.Fatalf("zero-first merge dropped latency sum: %g, want %g", got.Latency.Sum, s.Latency.Sum)
	}
	for name, h := range s.ByTenant {
		if got.ByTenant[name].Count != h.Count {
			t.Fatalf("zero-first merge dropped tenant %q histogram", name)
		}
	}
}

// TestMergeAssociativeAcrossShards mirrors the router's real call shape:
// merging N shard snapshots pairwise-left must equal one flat merge.
func TestMergeAssociativeAcrossShards(t *testing.T) {
	var shards []Snapshot
	for i := 0; i < 4; i++ {
		shards = append(shards, seededSnapshot(uint64(40+i), fmt.Sprintf("s%d", i)))
	}
	flat := Merge(shards...)
	left := Merge(shards[0])
	for _, s := range shards[1:] {
		left = Merge(left, s)
	}
	if !reflect.DeepEqual(flat, left) {
		t.Fatal("pairwise-left merge differs from flat merge")
	}
}
