package autoscale

import (
	"context"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/interfere"
	"autoscale/internal/obs"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
	"autoscale/internal/tracez"
)

// TestDecideZeroAlloc is the allocs-per-op regression guard for the decide
// fast path: observe -> dense state index -> lock-free RCU Q-row argmax.
// The path must not allocate — make verify runs this test, so any future
// allocation on the hot path fails the build rather than silently eroding
// throughput.
func TestDecideZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	e, m, c := trainedBenchEngine(t)
	e.Agent().Freeze()
	// One warm call materializes any row the training loop missed.
	if _, err := e.Predict(m, c); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := e.Predict(m, c); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Predict fast path allocates %.2f allocs/op, want 0", avg)
	}
}

// TestExecuteLoadedZeroAlloc guards the simulator's loaded path: on a world
// that has met the model, executing a local target under co-runner load
// evaluates the compiled roofline and draws its noise without allocating —
// the case every dynamic environment is in, which the idle memo never sees.
func TestExecuteLoadedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("ResNet 50")
	tgt := sim.Target{Location: sim.Local, Kind: soc.CPU, Step: 11, Prec: dnn.INT8}
	c := sim.Conditions{Load: interfere.Load{CPUUtil: 0.6, MemUtil: 0.5}, RSSIWLAN: -55, RSSIP2P: -55}
	root := exec.NewRoot(1)
	var ctx exec.Context
	n := uint64(0)
	run := func() {
		n++
		root.Rekey(&ctx, "req", n)
		if _, err := w.ExecuteCtx(&ctx, m, tgt, c); err != nil {
			t.Fatal(err)
		}
	}
	run() // compiles the model's plans
	if avg := testing.AllocsPerRun(1000, run); avg != 0 {
		t.Fatalf("loaded ExecuteCtx allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTracedDecideAllocBudget guards the sampled decide path: capturing
// decision provenance into a caller-owned, reused obs.Provenance must add at
// most 2 allocs/op over the plain filtered step. The prov slot's Q and Mask
// slices are refilled in place, so in practice the delta is zero once warm.
func TestTracedDecideAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	e, m, c := trainedBenchEngine(t)
	e.Agent().Freeze()
	var prov obs.Provenance
	// Warm both paths so every row and scratch buffer is materialized.
	if _, err := e.Step(nil, m, c, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(nil, m, c, nil, &prov); err != nil {
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(500, func() {
		if _, err := e.Step(nil, m, c, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(500, func() {
		if _, err := e.Step(nil, m, c, nil, &prov); err != nil {
			t.Fatal(err)
		}
	})
	if traced-plain > 2 {
		t.Fatalf("provenance capture adds %.2f allocs/op over plain decide (%.2f vs %.2f), budget 2",
			traced-plain, traced, plain)
	}
}

// TestTraceLifecycleAllocBudget bounds the tracer's own per-request cost: a
// full sampled lifecycle — Start, spans, provenance fill, Finish into the
// kept ring — must stay within 2 allocs/op once the trace pool and span
// slices are warm. The one unavoidable allocation is the Active handle.
func TestTraceLifecycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	tr := tracez.New(tracez.Config{SampleRate: 1, Ring: 8})
	lifecycle := func() {
		a := tr.Start("MobileNet v3", "batch", 0)
		a.SetShard("s0")
		a.Span("queue", 0.001, "local")
		a.Span("decide", 0.0001, "local")
		pr := a.Prov()
		pr.StateIdx = 7
		pr.Q = append(pr.Q[:0], 1.5, 2.5, 0.5)
		pr.Mask = append(pr.Mask[:0], true, true, false)
		a.Span("execute", 0.01, "local")
		a.Finish("served")
	}
	// Warm: fill the ring and pool so steady state recycles Trace structs.
	for i := 0; i < 64; i++ {
		lifecycle()
	}
	avg := testing.AllocsPerRun(1000, lifecycle)
	if avg > 2 {
		t.Fatalf("sampled trace lifecycle allocates %.2f allocs/op, budget 2", avg)
	}
}

// TestRouterDoAllocBudget bounds the routing tier's per-request allocations
// on a warmed four-shard router: Router.Do recycles its envelope and the
// shard's, dispatches on the caller and completes on the lane's worker, so
// nothing on the path allocates per request. The budget of 1 leaves room for
// a pool refill after a garbage collection, not for a per-request object.
func TestRouterDoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	rt := benchRouter(t)
	req := Request{Model: dnn.MustByName("MobileNet v3"), Conditions: sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}, Tenant: "gold"}
	do := func() {
		if _, err := rt.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: every lane has served, the pools hold their envelopes and the
	// tenant queue's backing array has grown.
	for i := 0; i < 256; i++ {
		do()
	}
	if avg := testing.AllocsPerRun(2000, do); avg > 1 {
		t.Fatalf("Router.Do allocates %.2f allocs/op, budget 1", avg)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayDoZeroAlloc guards the synchronous gateway path: a sequential
// client's Do on a frozen two-lane gateway finds its lane idle, serves on
// its own goroutine with a recycled envelope, and allocates nothing. The
// queue high watermark staying at 0 shows no request took the worker path.
func TestGatewayDoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	var backends []GatewayBackend
	var req Request
	for _, dev := range []string{"lane-0", "lane-1"} {
		e, m, c := trainedBenchEngine(t)
		e.Agent().Freeze()
		backends = append(backends, GatewayBackend{Device: dev, Engine: e})
		req = Request{Model: m, Conditions: c}
	}
	gw, err := NewGateway(backends, GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	do := func() {
		if _, err := gw.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: every lane has served and the envelope pool holds one.
	for i := 0; i < 16; i++ {
		do()
	}
	if avg := testing.AllocsPerRun(2000, do); avg != 0 {
		t.Fatalf("Gateway.Do allocates %.2f allocs/op, want 0", avg)
	}
	if d := gw.Snapshot().QueueMaxDepth; d != 0 {
		t.Fatalf("queue high watermark %d: a sequential Do left the inline path", d)
	}
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTrainStepZeroAlloc guards the learning step: an unfrozen engine,
// warmed on the engine_train workload's zoo × D2 ring until every state of
// the ring has a row, takes full Steps — observe, complete the staged
// update, select, execute, reward, stage — without allocating.
func TestTrainStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on otherwise alloc-free paths")
	}
	e, ring := zooTrainEngine(t, 11, 2*zooRingSize)
	i := 0
	step := func() {
		r := &ring[i%zooRingSize]
		i++
		if _, err := e.Step(nil, r.Model, r.Conditions, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("training Step allocates %.2f allocs/op, want 0", avg)
	}
	if e.Agent().Frozen() {
		t.Fatal("the guarded engine must be learning")
	}
}
