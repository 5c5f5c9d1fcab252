package autoscale

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`). Each experiment bench
// reports its headline quantity via b.ReportMetric so the paper-vs-measured
// comparison in EXPERIMENTS.md can be reproduced from the bench output; the
// engine micro-benchmarks reproduce the Section VI-C overhead analysis
// (25.4 us per training step, 7.3 us per trained-table lookup, 0.4 MB
// table). Ablation benches cover the design choices called out in DESIGN.md.

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exp"
	"autoscale/internal/interfere"
	"autoscale/internal/rl"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// benchOpts keeps experiment benches affordable; the full-fidelity numbers
// in EXPERIMENTS.md come from cmd/autoscale-exp without -quick.
func benchOpts() exp.Options { return exp.Quick(42) }

func runExperiment(b *testing.B, id string) *exp.Table {
	b.Helper()
	var tab *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = exp.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// cellFloat extracts a numeric cell from a table row identified by the
// values of leading columns.
func cellFloat(b *testing.B, tab *exp.Table, col int, match ...string) float64 {
	b.Helper()
	for _, row := range tab.Rows {
		ok := true
		for i, m := range match {
			if row[i] != m {
				ok = false
				break
			}
		}
		if ok {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				b.Fatalf("parse %q: %v", row[col], err)
			}
			return v
		}
	}
	b.Fatalf("row %v not found", match)
	return 0
}

func BenchmarkTableIStates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewStateSpace()
		if s.Size() != 3072 {
			b.Fatal("state space drifted")
		}
	}
}

func BenchmarkFig2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

func BenchmarkFig9(b *testing.B) {
	tab := runExperiment(b, "fig9")
	// Report the headline quantity: AutoScale's PPW over Edge (CPU FP32),
	// averaged over the three devices (paper: 9.8x).
	var sum float64
	for _, dev := range []string{"Mi8Pro", "GalaxyS10e", "MotoXForce"} {
		sum += cellFloat(b, tab, 2, dev, "AutoScale")
	}
	b.ReportMetric(sum/3, "xEdgeCPU")
}

func BenchmarkFig14(b *testing.B) {
	tab := runExperiment(b, "fig14")
	// Report the from-scratch static convergence on the Mi8Pro
	// (paper: 40-50 runs).
	b.ReportMetric(cellFloat(b, tab, 3, "Mi8Pro", "scratch", "static"), "runs")
}

func BenchmarkAblationStates(b *testing.B) { runExperiment(b, "ablation") }

// --- Section VI-C overhead micro-benchmarks -------------------------------

// trainedBenchEngine builds a lightly trained engine for overhead benches
// (and the zero-alloc regression guard, hence testing.TB).
func trainedBenchEngine(b testing.TB) (*core.Engine, *dnn.Model, sim.Conditions) {
	b.Helper()
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	e, err := core.NewEngine(w, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	for i := 0; i < 200; i++ {
		if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
			b.Fatal(err)
		}
	}
	return e, m, c
}

// BenchmarkEngineTrainStep measures one full engine step — observe, select,
// execute (simulated), estimate, reward, update — the quantity the paper
// reports as 25.4 us of training overhead.
func BenchmarkEngineTrainStep(b *testing.B) {
	e, m, c := trainedBenchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
			b.Fatal(err)
		}
	}
}

// zooRingSize is the length of a zooRing, the benchmark harness's ring.
const zooRingSize = 4096

// zooRing is the engine_train workload's request ring for seed: the
// ten-model zoo in a fresh seeded order every ten requests, under the D2
// (web-browser co-runner) conditions process. Consecutive requests are
// mostly different models, so S′ usually differs from S, unlike
// BenchmarkEngineTrainStep's one model under one condition.
func zooRing(tb testing.TB, seed int64) []Request {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed * 7919))
	env, err := sim.NewEnvironment(sim.EnvD2, seed)
	if err != nil {
		tb.Fatal(err)
	}
	zoo := dnn.Zoo()
	var order []int
	ring := make([]Request, zooRingSize)
	for i := range ring {
		if i%len(zoo) == 0 {
			order = rng.Perm(len(zoo))
		}
		ring[i] = Request{Model: zoo[order[i%len(zoo)]], Conditions: env.Sample()}
	}
	return ring
}

// zooTrainEngine builds the engine_train workload's learning engine for
// seed on the Mi8Pro and warms it with warm steps over its zooRing, which
// it returns too.
func zooTrainEngine(tb testing.TB, seed int64, warm int) (*core.Engine, []Request) {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.RL.Seed = seed, seed+100
	e, err := core.NewEngine(sim.NewWorld(soc.Mi8Pro(), seed), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ring := zooRing(tb, seed)
	for i := 0; i < warm; i++ {
		r := &ring[i%zooRingSize]
		if _, err := e.RunInferenceCtx(nil, r.Model, r.Conditions); err != nil {
			tb.Fatal(err)
		}
	}
	return e, ring
}

// BenchmarkEngineTrainStepZoo measures the learning step on the
// engine_train workload's zoo × D2 ring after its 20,000-step warm-up. S′
// usually differs from S, so this mostly times the branch where the
// selection reuses the update's argmax of S′; BenchmarkEngineTrainStep
// times the rescan after S′ = S. `make profile-engine` profiles it.
func BenchmarkEngineTrainStepZoo(b *testing.B) {
	e, ring := zooTrainEngine(b, 11, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &ring[i%zooRingSize]
		if _, err := e.RunInferenceCtx(nil, r.Model, r.Conditions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineLookup measures the exploitation path — observe and greedy
// Q-table lookup — the paper's 7.3 us trained-table overhead.
func BenchmarkEngineLookup(b *testing.B) {
	e, m, c := trainedBenchEngine(b)
	e.Agent().Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(m, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEngine measures building an untrained engine — what every
// Reset, revive and restore pays for its fresh agent, and the experiment
// harness for each of its short-lived engines. B/op is mostly the Q-table's
// per-state arrays: rows cost nothing until a state is seen.
func BenchmarkNewEngine(b *testing.B) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(w, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateKey measures the Table I discretization alone.
func BenchmarkStateKey(b *testing.B) {
	s := core.NewStateSpace()
	m := dnn.MustByName("Inception v3")
	c := sim.Conditions{RSSIWLAN: -72, RSSIP2P: -61}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key(core.ObservationOf(m, c))
	}
}

// BenchmarkQTableUpdate measures the raw Q-learning update rule.
func BenchmarkQTableUpdate(b *testing.B) {
	ag, err := rl.NewAgent(rl.DefaultConfig(), 66, core.NewStateSpace())
	if err != nil {
		b.Fatal(err)
	}
	s, ok := ag.StateIndex("0|1|0|1|0|0|1|1")
	if !ok {
		b.Fatal("Table I key not on the grid")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ag.UpdateIdx(s, i%66, -42.0, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLoads are the two co-runner cases the simulator benchmarks price: an
// idle device, whose latency is a memoised scalar, and a D2-like browser
// load, which evaluates the compiled roofline on every request — the case
// every dynamic environment and the repo benchmark's request streams are in.
var benchLoads = []struct {
	name string
	load interfere.Load
}{
	{"idle", interfere.Load{}},
	{"loaded", interfere.Load{CPUUtil: 0.6, MemUtil: 0.5}},
}

// BenchmarkWorldExecute measures one simulated inference execution.
func BenchmarkWorldExecute(b *testing.B) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("ResNet 50")
	t := sim.Target{Location: sim.Local, Kind: soc.DSP, Prec: dnn.INT8}
	for _, bl := range benchLoads {
		b.Run(bl.name, func(b *testing.B) {
			c := sim.Conditions{Load: bl.load, RSSIWLAN: -55, RSSIP2P: -55}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.ExecuteCtx(nil, m, t, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptSearch measures the exhaustive oracle search over the ~66
// actions — what the Opt baseline pays per request.
func BenchmarkOptSearch(b *testing.B) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("Inception v1")
	for _, bl := range benchLoads {
		b.Run(bl.name, func(b *testing.B) {
			c := sim.Conditions{Load: bl.load, RSSIWLAN: -55, RSSIP2P: -55}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.BestTarget(m, c, sim.QoSNonStreamingS, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ------------

// ablationEval trains an engine with the given config on two models and one
// environment and reports the energy ratio of its greedy decisions to Opt.
func ablationEval(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	w := sim.NewWorld(soc.Mi8Pro(), 9)
	e, err := core.NewEngine(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	models := []*dnn.Model{dnn.MustByName("Inception v1"), dnn.MustByName("MobileNet v3")}
	env := sim.MustEnvironment(sim.EnvS1, 9)
	for i := 0; i < 200; i++ {
		for _, m := range models {
			if _, err := e.RunInferenceCtx(nil, m, env.Sample()); err != nil {
				b.Fatal(err)
			}
		}
	}
	var ratioSum float64
	var n int
	for i := 0; i < 20; i++ {
		for _, m := range models {
			c := env.Sample()
			tgt, err := e.Predict(m, c)
			if err != nil {
				b.Fatal(err)
			}
			meas, err := w.Expected(m, tgt, c)
			if err != nil {
				b.Fatal(err)
			}
			_, optMeas, err := w.BestTarget(m, c, sim.QoSNonStreamingS, 0)
			if err != nil {
				b.Fatal(err)
			}
			ratioSum += meas.EnergyJ / optMeas.EnergyJ
			n++
		}
	}
	return ratioSum / float64(n)
}

// BenchmarkAblationEpsilon sweeps the exploration probability (paper: 0.1).
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0.01, 0.1, 0.3} {
		b.Run("eps="+strconv.FormatFloat(eps, 'g', -1, 64), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.RL.Epsilon = eps
				b.ReportMetric(ablationEval(b, cfg), "energy/opt")
			}
		})
	}
}

// BenchmarkAblationHyper sweeps the learning rate gamma and discount mu
// (the paper evaluates {0.1, 0.5, 0.9} for each and picks 0.9 / 0.1).
func BenchmarkAblationHyper(b *testing.B) {
	for _, gamma := range []float64{0.1, 0.5, 0.9} {
		for _, mu := range []float64{0.1, 0.5, 0.9} {
			name := "g=" + strconv.FormatFloat(gamma, 'g', -1, 64) +
				"/m=" + strconv.FormatFloat(mu, 'g', -1, 64)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := core.DefaultConfig()
					cfg.RL.LearningRate = gamma
					cfg.RL.Discount = mu
					b.ReportMetric(ablationEval(b, cfg), "energy/opt")
				}
			})
		}
	}
}

// BenchmarkBaselinePolicies measures the per-request cost of each
// comparison policy.
func BenchmarkBaselinePolicies(b *testing.B) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	m := dnn.MustByName("MobileNet v2")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	policies := []sched.Policy{
		sched.EdgeCPU{World: w},
		&sched.EdgeBest{World: w},
		sched.CloudAll{World: w},
		&sched.ConnectedEdge{World: w},
		&sched.MOSAIC{World: w},
		&sched.NeuroSurgeon{World: w},
		sched.Opt{World: w},
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.RunCtx(nil, m, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQTableSnapshot measures Q-table serialization (persistence path).
func BenchmarkQTableSnapshot(b *testing.B) {
	e, _, _ := trainedBenchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SnapshotQTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving gateway benches -----------------------------------------------

// benchGateway builds a two-device gateway over lightly warmed engines.
func benchGateway(b *testing.B) *Gateway {
	b.Helper()
	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	var backends []GatewayBackend
	for i, dev := range []*soc.Device{soc.Mi8Pro(), soc.GalaxyS10e()} {
		e, err := core.NewEngine(sim.NewWorld(dev, int64(i+1)), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
				b.Fatal(err)
			}
		}
		backends = append(backends, GatewayBackend{Device: dev.Name, Engine: e})
	}
	gw, err := NewGateway(backends, GatewayConfig{QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	return gw
}

// BenchmarkGatewayThroughput measures closed-loop requests/sec through the
// serving gateway at increasing client concurrency — the perf baseline for
// the serving layer (each client has at most one request in flight, so
// ns/op is the per-request gateway overhead plus the engine step). The
// aggregate decision rate is reported as decisions/sec.
func BenchmarkGatewayThroughput(b *testing.B) {
	for _, clients := range []int{1, 4, 8, 16} {
		b.Run("clients="+strconv.Itoa(clients), func(b *testing.B) {
			gw := benchGateway(b)
			m := dnn.MustByName("MobileNet v3")
			c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for remaining.Add(-1) >= 0 {
						if _, err := gw.Do(Request{Model: m, Conditions: c}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
			if err := gw.Shutdown(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDecide measures the frozen decide fast path alone — observe,
// dense state index, lock-free RCU Q-row argmax — the path the allocs-per-op
// regression guard (make verify) holds at zero.
func BenchmarkDecide(b *testing.B) {
	e, m, c := trainedBenchEngine(b)
	e.Agent().Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(m, c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
}

// BenchmarkGatewaySubmit measures the admission-control path alone —
// open-loop submits that either enqueue or shed, never block — with the
// responses collected outside the timer.
func BenchmarkGatewaySubmit(b *testing.B) {
	gw := benchGateway(b)
	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	chans := make([]<-chan Response, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := gw.Submit(Request{Model: m, Conditions: c})
		if err != nil {
			b.Fatal(err)
		}
		chans = append(chans, ch)
	}
	b.StopTimer()
	if err := gw.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	for _, ch := range chans {
		<-ch
	}
}

// --- Routing-tier benches ---------------------------------------------------

// benchRouter builds a four-shard router, one lightly warmed lane per shard,
// with three weighted tenants — the multi-shard counterpart of benchGateway.
func benchRouter(b testing.TB) *Router {
	b.Helper()
	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	hardware := []*soc.Device{soc.Mi8Pro(), soc.GalaxyS10e(), soc.Mi8Pro(), soc.GalaxyS10e()}
	shards := make([]RouterShard, 0, len(hardware))
	for i, dev := range hardware {
		e, err := core.NewEngine(sim.NewWorld(dev, int64(i+1)), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
				b.Fatal(err)
			}
		}
		name := "shard-" + strconv.Itoa(i)
		gw, err := NewGateway([]GatewayBackend{{Device: dev.Name + "-" + strconv.Itoa(i), Engine: e}},
			GatewayConfig{Name: name, QueueDepth: 256})
		if err != nil {
			b.Fatal(err)
		}
		shards = append(shards, RouterShard{Name: name, Gateway: gw})
	}
	rt, err := NewRouter(shards, RouterConfig{
		Tenants:      []RouterTenant{{Name: "gold", Weight: 4}, {Name: "silver", Weight: 2}, {Name: "best", Weight: 1}},
		GlobalBudget: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkRouterThroughput measures closed-loop requests/sec through the
// full routing tier — tenant admission, DRR, least-loaded shard dispatch on
// the submitting goroutine and the completion on the shard's worker — over
// four gateway shards; the delta against BenchmarkGatewayThroughput at the
// same client count is the routing tier's per-request overhead.
func BenchmarkRouterThroughput(b *testing.B) {
	tenants := []string{"gold", "silver", "best"}
	for _, clients := range []int{4, 16} {
		b.Run("shards=4/clients="+strconv.Itoa(clients), func(b *testing.B) {
			rt := benchRouter(b)
			m := dnn.MustByName("MobileNet v3")
			c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					for i := 0; remaining.Add(-1) >= 0; i++ {
						req := Request{Model: m, Conditions: c, Tenant: tenants[(cl+i)%len(tenants)]}
						if _, err := rt.Do(req); err != nil {
							b.Error(err)
							return
						}
					}
				}(cl)
			}
			wg.Wait()
			b.StopTimer()
			if err := rt.Shutdown(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Extension experiment benches ------------------------------------------

func BenchmarkExtNPU(b *testing.B)       { runExperiment(b, "ext-npu") }
func BenchmarkExtPartition(b *testing.B) { runExperiment(b, "ext-partition") }
func BenchmarkExtSARSA(b *testing.B)     { runExperiment(b, "ext-sarsa") }
func BenchmarkExtOutage(b *testing.B)    { runExperiment(b, "ext-outage") }

// BenchmarkEngineTrainStepPartitions measures the training-step overhead
// with the enlarged (partition-augmented) action space.
func BenchmarkEngineTrainStepPartitions(b *testing.B) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	cfg := core.DefaultConfig()
	cfg.PartitionActions = true
	e, err := core.NewEngine(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := dnn.MustByName("MobileNet v3")
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
			b.Fatal(err)
		}
	}
}
