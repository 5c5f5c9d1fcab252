package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

func tinyOpts() Options {
	return Options{Seed: 7, Runs: 8, TrainRuns: 4, Warmup: 6}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"tableI", "tableII", "tableIII", "tableIV"} {
		tab, err := Run(id, tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
		if !strings.Contains(tab.String(), tab.Title) {
			t.Errorf("%s rendering lacks the title", id)
		}
	}
}

func TestTableIContent(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != core.NumFeatures {
		t.Errorf("Table I rows = %d, want %d", len(tab.Rows), core.NumFeatures)
	}
	if !strings.Contains(tab.Notes[0], "3,072") {
		t.Error("Table I must note the paper's state-space size")
	}
}

func TestTableIIIContent(t *testing.T) {
	tab := TableIII()
	if len(tab.Rows) != 10 {
		t.Errorf("Table III rows = %d, want 10", len(tab.Rows))
	}
}

func TestTableIVContent(t *testing.T) {
	tab := TableIV()
	if len(tab.Rows) != 9 {
		t.Errorf("Table IV rows = %d, want 9", len(tab.Rows))
	}
}

func TestCharacterizationFigures(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig6"} {
		tab, err := Run(id, tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Inception v1 total improves on co-processors; MobileNet v3 degrades.
	find := func(nn, proc string) float64 {
		for _, r := range tab.Rows {
			if r[0] == nn && strings.HasPrefix(r[1], proc) {
				v, err := strconv.ParseFloat(r[5], 64)
				if err != nil {
					t.Fatalf("parse %q: %v", r[5], err)
				}
				return v
			}
		}
		t.Fatalf("row %s/%s missing", nn, proc)
		return 0
	}
	if find("Inception v1", "GPU") >= 1 || find("Inception v1", "DSP") >= 1 {
		t.Error("Inception v1 must speed up on co-processors (Fig 3)")
	}
	if find("MobileNet v3", "GPU") <= 1 {
		t.Error("MobileNet v3 must slow down on the GPU (Fig 3)")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 25 {
		t.Errorf("registry has %d experiments, want 25", len(ids))
	}
	// Tables come first, figures in numeric order.
	if !strings.HasPrefix(ids[0], "table") {
		t.Errorf("first ID %s, want a table", ids[0])
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate ID %s", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"fig2", "fig9", "fig14", "ablation"} {
		if !seen[want] {
			t.Errorf("registry lacks %s", want)
		}
	}
	if _, err := Run("fig99", tinyOpts()); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestEvaluatePolicy(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	models := []*dnn.Model{dnn.MustByName("MobileNet v1"), dnn.MustByName("MobileBERT")}
	cfg := EvalConfig{Models: models, EnvIDs: []string{sim.EnvS1, sim.EnvS4}, Runs: 10, Seed: 3}
	res, err := EvaluatePolicy(sched.EdgeCPU{World: w}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferences != 2*2*10 {
		t.Errorf("inferences = %d, want 40", res.Inferences)
	}
	cells := Cells(models, cfg.EnvIDs)
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if res.MeanEnergyJ[c] <= 0 || res.MeanLatencyS[c] <= 0 {
			t.Errorf("cell %v lacks measurements", c)
		}
		if v := res.QoSViolRatio[c]; v < 0 || v > 1 {
			t.Errorf("cell %v violation ratio %v", c, v)
		}
	}
	// Normalizing against itself yields 1.
	if got := res.MeanNormPPW(res, cells); got != 1 {
		t.Errorf("self-normalized PPW = %v, want 1", got)
	}
	if res.Decisions[sim.Local] != res.Inferences {
		t.Error("EdgeCPU decisions must all be local")
	}
}

func TestVarianceGrid(t *testing.T) {
	grid := VarianceGrid()
	if len(grid) != 64 {
		t.Fatalf("variance grid = %d states, want 64 (4x4x2x2)", len(grid))
	}
	seen := map[VarianceState]bool{}
	for _, v := range grid {
		if seen[v] {
			t.Error("duplicate grid point")
		}
		seen[v] = true
	}
}

func TestVarianceStateConditions(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	_ = w
	states := core.NewStateSpace()
	// Every grid point must land in its intended variance bins.
	for _, vs := range VarianceGrid() {
		c := vs.Conditions(exec.NewRoot(1).Stream("test"))
		o := core.ObservationOf(dnn.MustByName("MobileNet v1"), c)
		key := string(states.Key(o))
		_ = key
		if vs.CoCPU == 0 && c.Load.CPUUtil != 0 {
			t.Error("zero CPU level must stay exactly zero")
		}
		if c.Load.CPUUtil < 0 || c.Load.CPUUtil > 1 {
			t.Errorf("jittered CPU load out of range: %v", c.Load.CPUUtil)
		}
	}
}

func TestTrainEngineAndPolicy(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 2)
	cfg := core.DefaultConfig()
	models := []*dnn.Model{dnn.MustByName("MobileNet v1"), dnn.MustByName("Inception v1")}
	e, err := NewTrainedEngine(w, cfg, TrainConfig{Models: models, RunsPerState: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Agent().NumStates() == 0 {
		t.Error("training materialized no states")
	}
	pol := &AutoScalePolicy{Engine: e}
	if pol.Name() != "AutoScale" {
		t.Error("policy name wrong")
	}
	meas, err := pol.RunCtx(nil, models[0], sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55})
	if err != nil {
		t.Fatal(err)
	}
	if meas.LatencyS <= 0 {
		t.Error("policy produced no measurement")
	}
	labeled := &AutoScalePolicy{Engine: e, Label: "AutoScale (custom)"}
	if labeled.Name() != "AutoScale (custom)" {
		t.Error("label override broken")
	}
}

func TestLeaveOneOutBuildsPerModelEngines(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 3)
	loo := &LeaveOneOutAutoScale{
		World:  w,
		Config: core.DefaultConfig(),
		Train:  TrainConfig{Models: dnn.Zoo()[:3], RunsPerState: 2, Seed: 9},
	}
	m0, m1 := dnn.Zoo()[0], dnn.Zoo()[1]
	e0, err := loo.EngineFor(m0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := loo.EngineFor(m1)
	if err != nil {
		t.Fatal(err)
	}
	if e0 == e1 {
		t.Error("each held-out model needs its own engine")
	}
	again, _ := loo.EngineFor(m0)
	if again != e0 {
		t.Error("engines must be cached")
	}
	if _, err := loo.RunCtx(nil, m0, sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}); err != nil {
		t.Fatal(err)
	}
	// A single-model training set cannot leave one out.
	bad := &LeaveOneOutAutoScale{
		World:  w,
		Config: core.DefaultConfig(),
		Train:  TrainConfig{Models: []*dnn.Model{m0}, RunsPerState: 1},
	}
	if _, err := bad.EngineFor(m0); err == nil {
		t.Error("empty leave-one-out training set should fail")
	}
}

func TestBaselinesList(t *testing.T) {
	w := sim.NewWorld(soc.Mi8Pro(), 1)
	ps := Baselines(w, sim.NonStreaming, 0)
	if len(ps) != 5 {
		t.Fatalf("baselines = %d, want 5", len(ps))
	}
	want := []string{"Edge (CPU FP32)", "Edge (Best)", "Cloud", "Connected Edge", "Opt"}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Errorf("baseline %d = %s, want %s", i, p.Name(), want[i])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow(1.23456, "hello")
	tab.Notes = append(tab.Notes, "a note")
	out := tab.String()
	for _, want := range []string{"== x: T ==", "hello", "note: a note", "1.23"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 100 || o.TrainRuns != 100 || o.Warmup != 60 || o.Seed != 42 {
		t.Errorf("defaults = %+v", o)
	}
	q := Quick(5)
	if q.Runs >= o.Runs || q.TrainRuns >= o.TrainRuns {
		t.Error("Quick must be cheaper than the defaults")
	}
}

func TestExtensionExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments are slow")
	}
	for _, id := range []string{"ext-npu", "ext-partition", "ext-sarsa", "ext-outage", "ext-links", "ext-actions"} {
		tab, err := Run(id, tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
	}
}

func TestFig14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 trains a full donor")
	}
	tab, err := Run("fig14", Options{Seed: 3, Runs: 5, TrainRuns: 5, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Errorf("fig14 rows = %d, want 12", len(tab.Rows))
	}
}

// TestExtensionPlanSmoke drives the capacity-planning drill: six rows
// (static/planned x gold/silver/best), with the planned fleet attaining
// every SLO target and the static fleet missing gold's.
func TestExtensionPlanSmoke(t *testing.T) {
	tab, err := Run("ext-plan", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("ext-plan rows = %d, want 6:\n%v", len(tab.Rows), tab.Rows)
	}
	attained := map[string]string{}
	for _, row := range tab.Rows {
		attained[row[0]+"/"+row[1]] = row[4]
	}
	if attained["planned/gold"] != "true" {
		t.Errorf("planned gold not attained: %v", tab.Rows)
	}
	if attained["static/gold"] != "false" {
		t.Errorf("static gold unexpectedly attained: %v", tab.Rows)
	}
}

func TestConvergePoint(t *testing.T) {
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 1.0
	}
	if got := convergePoint(flat); got != 1 {
		t.Errorf("flat series converges at %d, want 1", got)
	}
	// A series that drops into the band at run 50.
	series := make([]float64, 100)
	for i := range series {
		if i < 50 {
			series[i] = 3.0
		} else {
			series[i] = 1.0
		}
	}
	// The 15-wide median window crosses into the band once a majority of
	// the window sits past the step, a few runs before run 50.
	got := convergePoint(series)
	if got < 40 || got > 55 {
		t.Errorf("step series converges at %d, want ~44-50", got)
	}
	// Exploration spikes are ignored by the median window.
	for i := 55; i < 100; i += 10 {
		series[i] = 5.0
	}
	if got := convergePoint(series); got < 40 || got > 60 {
		t.Errorf("spiky series converges at %d, want ~44-55", got)
	}
	// Short series converge trivially at their length.
	if got := convergePoint([]float64{1, 2}); got != 2 {
		t.Errorf("short series = %d", got)
	}
}

func TestShare(t *testing.T) {
	r := Result{Decisions: map[sim.Location]int{sim.Local: 3, sim.Cloud: 1}, Inferences: 4}
	if share(r, sim.Local) != 0.75 || share(r, sim.Cloud) != 0.25 {
		t.Error("share fractions wrong")
	}
	if share(Result{}, sim.Local) != 0 {
		t.Error("empty result share must be 0")
	}
}

func TestEvaluationFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation figures train engines")
	}
	micro := Options{Seed: 11, Runs: 3, TrainRuns: 2, Warmup: 2}
	for _, id := range []string{"fig9", "fig10", "fig11", "fig12", "fig13"} {
		tab, err := Run(id, micro)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
		// Every numeric PPW cell must parse and be positive.
		for _, row := range tab.Rows {
			if v, err := strconv.ParseFloat(row[len(row)-2], 64); err == nil && v < 0 {
				t.Errorf("%s has negative PPW row %v", id, row)
			}
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 trains five predictors per fold")
	}
	tab, err := Run("fig7", Options{Seed: 12, Runs: 3, TrainRuns: 2, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Edge (CPU) + 5 approaches + Opt.
	if len(tab.Rows) != 7 {
		t.Errorf("fig7 rows = %d, want 7", len(tab.Rows))
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation trains nine engine sets")
	}
	tab, err := Run("ablation", Options{Seed: 13, Runs: 2, TrainRuns: 2, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// (none) + 8 features.
	if len(tab.Rows) != 9 {
		t.Errorf("ablation rows = %d, want 9", len(tab.Rows))
	}
}

func TestRunCells(t *testing.T) {
	opts := tinyOpts().withDefaults()
	// Results come back in submission order regardless of scheduling.
	got, err := runCells(opts, 16, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("cell %d = %d, want %d", i, v, i*i)
		}
	}
	// Errors surface; Parallel=1 serializes without deadlocking.
	opts = Options{Seed: 1, Runs: 1, TrainRuns: 1, Warmup: 1, Parallel: 1}.withDefaults()
	_, err = runCells(opts, 4, func(i int) (int, error) {
		if i == 2 {
			return 0, strconv.ErrRange
		}
		return i, nil
	})
	if err == nil {
		t.Error("cell error must propagate")
	}
}

func TestRunAllOrderAndErrors(t *testing.T) {
	outs := RunAll([]string{"tableI", "fig99", "tableII"}, tinyOpts())
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	if outs[0].ID != "tableI" || outs[0].Err != nil || outs[0].Table == nil {
		t.Errorf("tableI outcome broken: %+v", outs[0])
	}
	if outs[1].Err == nil {
		t.Error("unknown experiment must fail")
	}
	if outs[2].ID != "tableII" || outs[2].Err != nil {
		t.Errorf("tableII outcome broken: %+v", outs[2])
	}
}

func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains leave-one-out engines")
	}
	// The acceptance bar of the parallel harness: the same experiment at
	// Parallel=1 and Parallel=8 renders byte-identical tables.
	micro := Options{Seed: 11, Runs: 3, TrainRuns: 2, Warmup: 2}
	for _, id := range []string{"fig9", "fig7"} {
		serialOpts := micro
		serialOpts.Parallel = 1
		serial, err := Run(id, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parOpts := micro
		parOpts.Parallel = 8
		parallel, err := Run(id, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s differs between Parallel=1 and Parallel=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}, {"2", "z"}}}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestDeterministicOutput(t *testing.T) {
	// The reproducibility promise: same seed, same table.
	a, err := Run("fig3", Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig3", Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("fig3 is not deterministic for a fixed seed")
	}
	c, err := Run("fig5", Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run("fig5", Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != d.String() {
		t.Error("fig5 is not deterministic for a fixed seed")
	}
}
