package metrics

import (
	"math"
	"sync"
	"testing"

	"autoscale/internal/obs"
	"autoscale/internal/sim"
)

func TestCountersAndSnapshot(t *testing.T) {
	r := New("Mi8Pro")
	r.IncSubmitted()
	r.IncSubmitted()
	r.ObserveServed(ServedSample{QoSViolated: true, Target: sim.Local})
	r.IncShed()
	r.IncOutage()

	s := r.Snapshot()
	if s.Submitted != 2 || s.Served != 1 || s.Shed != 1 || s.Expired != 0 {
		t.Fatalf("snapshot counters: %+v", s)
	}
	if s.QoSViolations != 1 || s.Outages != 1 {
		t.Fatalf("snapshot counters: %+v", s)
	}
	if s.Accounted() != 2 {
		t.Fatalf("accounted = %d", s.Accounted())
	}
	if s.ByTarget["local"] != 1 || s.ByDevice["Mi8Pro"] != 1 {
		t.Fatalf("maps: %+v %+v", s.ByTarget, s.ByDevice)
	}
	// The snapshot must be a copy, not a view.
	s.ByTarget["local"] = 99
	if r.Snapshot().ByTarget["local"] != 1 {
		t.Fatal("snapshot aliases the registry map")
	}
}

func TestQueueGauge(t *testing.T) {
	r := New("")
	r.QueueEnter()
	r.QueueEnter()
	r.QueueEnter()
	r.QueueExit()
	s := r.Snapshot()
	if s.QueueDepth != 2 || s.QueueMaxDepth != 3 {
		t.Fatalf("gauge: depth %d max %d", s.QueueDepth, s.QueueMaxDepth)
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := New("")
	r.ObserveServed(ServedSample{LatencyS: 0.010, EnergyJ: 0.5})
	r.ObserveServed(ServedSample{LatencyS: 0.020, EnergyJ: 0.5})
	r.ObserveAdmission(0.001, 0, false)
	s := r.Snapshot()
	if s.Latency.Count != 2 || s.Wait.Count != 1 || s.Energy.Count != 2 || s.VWait.Count != 0 {
		t.Fatalf("histogram counts: %d %d %d %d", s.Latency.Count, s.Wait.Count, s.Energy.Count, s.VWait.Count)
	}
	// Admission feeds the queue-phase histogram from the same wait.
	if q := s.Phases[obs.PhaseQueue]; q.Count != 1 || q.Sum != 0.001 {
		t.Fatalf("queue phase: %+v", q)
	}
	if got := s.Latency.Mean(); math.Abs(got-0.015) > 1e-12 {
		t.Fatalf("latency mean = %v", got)
	}
	if s.Latency.Scheme != obs.DefaultScheme() {
		t.Fatalf("latency scheme = %+v", s.Latency.Scheme)
	}
	// All registry histograms share one scheme so they can add.
	if s.Wait.Scheme != s.Latency.Scheme || s.Energy.Scheme != s.Latency.Scheme || s.VWait.Scheme != s.Latency.Scheme {
		t.Fatalf("schemes differ across axes: %+v %+v %+v", s.Wait.Scheme, s.Energy.Scheme, s.VWait.Scheme)
	}
	// Quantiles are within one sub-bucket of the observation and capped at
	// the observed max.
	p99 := s.Latency.Quantile(0.99)
	if p99 < 0.020 || p99 > 0.020*(1+1.0/float64(obs.DefaultScheme().Sub)) {
		t.Fatalf("p99 = %v", p99)
	}
}

func TestObservePhase(t *testing.T) {
	r := New("")
	r.ObservePhase(obs.PhaseExecuteIdx, 0.010)
	r.ObservePhase(obs.PhaseExecuteIdx, 0.030)
	r.ObservePhase(obs.PhaseDecideIdx, 0.005)
	r.ObservePhase(obs.NumPhases, 1.0) // dropped, not panicking
	r.ObservePhase(-1, 1.0)            // dropped, not panicking
	s := r.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %v", s.Phases)
	}
	ex := s.Phases[obs.PhaseExecute]
	if ex.Count != 2 || math.Abs(ex.Sum-0.040) > 1e-12 {
		t.Fatalf("execute phase: %+v", ex)
	}
	if s.Phases[obs.PhaseDecide].Count != 1 {
		t.Fatalf("decide phase: %+v", s.Phases[obs.PhaseDecide])
	}
	// Phases that never observed stay out of the snapshot.
	if _, ok := s.Phases[obs.PhaseQueue]; ok {
		t.Fatal("empty phase present in snapshot")
	}
}

// TestSnapshotIsConsistentCut pins the torn-read fix: ObserveServed bumps
// the served counter, the latency/energy/phase histograms and the target
// and device counts under one lock, so every snapshot sees them agree —
// never a counter ahead of its histograms.
func TestSnapshotIsConsistentCut(t *testing.T) {
	r := New("dev")
	var phases obs.PhaseTotals
	phases.Add(obs.PhaseExecuteIdx, 0.01)
	sample := ServedSample{LatencyS: 0.01, EnergyJ: 0.5, Target: sim.Local, Phases: phases}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			r.ObserveServed(sample)
		}
	}()
	for {
		s := r.Snapshot()
		n := s.Served
		if s.Latency.Count != n || s.Energy.Count != n || s.Phases[obs.PhaseExecute].Count != n ||
			s.ByTarget["local"] != n || s.ByDevice["dev"] != n {
			t.Fatalf("torn snapshot: served %d latency %d energy %d execute %d target %d device %d",
				n, s.Latency.Count, s.Energy.Count, s.Phases[obs.PhaseExecute].Count, s.ByTarget["local"], s.ByDevice["dev"])
		}
		select {
		case <-done:
			if s := r.Snapshot(); s.Served != 20000 {
				t.Fatalf("lost counts: %+v", s)
			}
			return
		default:
		}
	}
}

// TestConcurrentUpdates hammers every mutator from many goroutines; run with
// -race this is the registry's thread-safety regression test.
func TestConcurrentUpdates(t *testing.T) {
	r := New("dev")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.IncSubmitted()
				r.QueueEnter()
				r.ObserveAdmission(0.001, 0.002, true)
				r.QueueExit()
				var phases obs.PhaseTotals
				phases.Add(obs.PhaseExecuteIdx, 0.01)
				r.ObserveServed(ServedSample{
					LatencyS: 0.01, EnergyJ: 0.5, DecideS: 0.0001, Tenant: "t", TenantRespS: 0.012,
					Target: sim.Local, Phases: phases,
				})
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Submitted != workers*each || s.Served != workers*each {
		t.Fatalf("lost counts: %+v", s)
	}
	if s.Latency.Count != workers*each {
		t.Fatalf("lost latency observations: %d", s.Latency.Count)
	}
	if got := s.Latency.Sum; math.Abs(got-workers*each*0.01) > 1e-6 {
		t.Fatalf("latency sum = %v", got)
	}
	for _, phase := range []string{obs.PhaseQueue, obs.PhaseDecide, obs.PhaseExecute} {
		if got := s.Phases[phase].Count; got != workers*each {
			t.Fatalf("lost %s phase observations: %d", phase, got)
		}
	}
	if s.Wait.Count != workers*each || s.VWait.Count != workers*each || s.ByTenant["t"].Count != workers*each {
		t.Fatalf("lost admission/tenant observations: wait %d vwait %d tenant %d",
			s.Wait.Count, s.VWait.Count, s.ByTenant["t"].Count)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth = %d", s.QueueDepth)
	}
	if s.ByTarget["local"] != workers*each || s.ByDevice["dev"] != workers*each {
		t.Fatalf("target/device counts = %d/%d", s.ByTarget["local"], s.ByDevice["dev"])
	}
}

// servedSample is one served request as the gateway records it: a tenant,
// an execution leg and a decide phase.
func servedSample() ServedSample {
	var phases obs.PhaseTotals
	phases.Add(obs.PhaseExecuteIdx, 0.01)
	return ServedSample{
		LatencyS: 0.01, EnergyJ: 0.5, DecideS: 0.0001, Tenant: "gold", TenantRespS: 0.012,
		Target: sim.Connected, Phases: phases,
	}
}

// TestRegistryObserveZeroAlloc holds a served request's registry updates —
// submission, admission and the served sample of a tenant seen before — to
// zero allocations: the labelled views are arrays and tenant pointers, so
// none of them writes a map.
func TestRegistryObserveZeroAlloc(t *testing.T) {
	r := New("dev")
	s := servedSample()
	r.ObserveServed(s) // the tenant's first request makes its histogram
	allocs := testing.AllocsPerRun(1000, func() {
		r.IncSubmitted()
		r.ObserveAdmission(0.001, 0.002, true)
		r.ObserveServed(s)
	})
	if allocs != 0 {
		t.Fatalf("a served request's registry updates allocate %v times, want 0", allocs)
	}
}

var registrySink *Registry

// TestRegistryNewAllocBudget holds a registry's construction — one per
// gateway lane, plus one per gateway for unrouted outcomes — to 15
// allocations, so a leaner hot path is not bought with setup cost.
func TestRegistryNewAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { registrySink = New("dev") })
	if allocs > 15 {
		t.Fatalf("New allocates %v times, budget 15", allocs)
	}
	t.Logf("New allocates %v times", allocs)
}

// BenchmarkRegistryServe prices the registry updates of one served request:
// submission, admission and the served sample, three lock round trips.
func BenchmarkRegistryServe(b *testing.B) {
	r := New("dev")
	s := servedSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.IncSubmitted()
		r.ObserveAdmission(0.001, 0.002, true)
		r.ObserveServed(s)
	}
}
