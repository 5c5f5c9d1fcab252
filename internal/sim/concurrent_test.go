package sim

import (
	"sync"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/interfere"
	"autoscale/internal/soc"
)

// TestExecuteCtxConcurrentDeterminism is the determinism contract of the
// execution-context refactor: a request's stochastic draws are a pure
// function of (root seed, request identity), so N goroutines issuing the
// same derived contexts produce exactly the Measurements a serial loop does,
// regardless of interleaving. Run with -race to also certify the hot path
// free of data races.
func TestExecuteCtxConcurrentDeterminism(t *testing.T) {
	const n = 256
	m := dnn.MustByName("MobileNet v2")
	tgt := Target{Location: Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	c := strongCond()

	run := func(parallel bool) []Measurement {
		w := NewWorld(soc.Mi8Pro(), 1)
		w.OutageProb = 0.2 // exercise both streams: outage and noise draws
		root := exec.NewRoot(99)
		out := make([]Measurement, n)
		if !parallel {
			for i := 0; i < n; i++ {
				meas, err := w.ExecuteCtx(root.Child("req", uint64(i)), m, tgt, c)
				if err != nil {
					t.Error(err)
				}
				out[i] = meas
			}
			return out
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				meas, err := w.ExecuteCtx(root.Child("req", uint64(i)), m, tgt, c)
				if err != nil {
					t.Error(err)
				}
				out[i] = meas
			}(i)
		}
		wg.Wait()
		return out
	}

	serial := run(false)
	concurrent := run(true)
	var outages int
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Fatalf("request %d diverged: serial %+v, concurrent %+v", i, serial[i], concurrent[i])
		}
		if serial[i].Target.Location == Local {
			outages++ // outage fallback reruns locally; the request asked for Cloud
		}
	}
	if outages == 0 || outages == n {
		t.Errorf("outage draws degenerate (%d/%d): both stream branches should occur", outages, n)
	}
}

// TestExecuteCtxIndependentOfSequence checks that explicit contexts bypass
// the world's internal request counter: interleaving counter-driven Execute
// calls must not shift the draws of context-driven requests.
func TestExecuteCtxIndependentOfSequence(t *testing.T) {
	m := dnn.MustByName("MobileNet v2")
	tgt := Target{Location: Local, Kind: soc.CPU, Step: 0, Prec: dnn.FP32}
	c := strongCond()
	root := exec.NewRoot(7)
	ctx := root.Child("req", 42)

	w1 := NewWorld(soc.Mi8Pro(), 1)
	a, err := w1.ExecuteCtx(ctx, m, tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWorld(soc.Mi8Pro(), 1)
	for i := 0; i < 10; i++ {
		if _, err := w2.ExecuteCtx(nil, m, tgt, c); err != nil {
			t.Fatal(err)
		}
	}
	b, err := w2.ExecuteCtx(ctx, m, tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("context-driven request shifted by counter traffic: %+v vs %+v", a, b)
	}
}

// TestColdWorldConcurrentFirstUse races the plan table's first inserts:
// eight goroutines meet a world that has compiled nothing, each sweeping the
// zoo in its own order through BestTarget and a loaded and an idle
// ExecuteCtx, so copy-on-write inserts, lost insert races and first fills of
// the idle memo all overlap. Every result must equal what a serial world
// computes. Run with -race.
func TestColdWorldConcurrentFirstUse(t *testing.T) {
	const workers = 8
	zoo := dnn.Zoo()
	loaded := Conditions{Load: interfere.Load{CPUUtil: 0.6, MemUtil: 0.5}, RSSIWLAN: -55, RSSIP2P: -55}
	type result struct {
		best         Target
		bestMeas     Measurement
		loaded, idle Measurement
	}
	sweep := func(w *World, worker int) []result {
		out := make([]result, len(zoo))
		root := exec.NewRoot(5)
		for k := range zoo {
			i := (k + worker) % len(zoo)
			m := zoo[i]
			var err error
			if out[i].best, out[i].bestMeas, err = w.BestTarget(m, loaded, QoSNonStreamingS, 0); err != nil {
				t.Error(err)
			}
			tgt := Target{Location: Local, Kind: soc.CPU, Step: i, Prec: dnn.FP32}
			if out[i].loaded, err = w.ExecuteCtx(root.Child("loaded", uint64(i)), m, tgt, loaded); err != nil {
				t.Error(err)
			}
			if out[i].idle, err = w.ExecuteCtx(root.Child("idle", uint64(i)), m, tgt, strongCond()); err != nil {
				t.Error(err)
			}
		}
		return out
	}

	want := sweep(NewWorld(soc.Mi8Pro(), 1), 0)
	cold := NewWorld(soc.Mi8Pro(), 1)
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = sweep(cold, g)
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("worker %d, %s: cold concurrent world gave %+v, serial world %+v", g, zoo[i].Name, got[g][i], want[i])
			}
		}
	}
	if n := len(cold.plans.Load().models); n != len(zoo) {
		t.Errorf("plan table holds %d models after the race, want %d", n, len(zoo))
	}
}
