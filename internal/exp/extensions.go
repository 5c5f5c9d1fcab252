package exp

import (
	"fmt"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/radio"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// Extension experiments: studies the paper sketches but does not run. Like
// the evaluation figures, each (world, policy) evaluation is a pure cell on
// the harness pool: the cell builds its own (possibly modified) world and
// policy from the Options.

// ExtensionNPU evaluates the Section V-C extension note — adding a mobile
// NPU and a cloud TPU to the action space — by comparing the standard
// Mi8Pro world against an augmented one under Opt and AutoScale.
func ExtensionNPU(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-npu",
		Title:   "Extension: mobile NPU and cloud TPU actions (Section V-C note)",
		Columns: []string{"World", "Policy", "PPW (vs Edge CPU)", "QoS violation", "Actions"},
	}
	models := dnn.Zoo()
	envs := sim.StaticEnvIDs()
	cells := Cells(models, envs)

	worldLabels := []string{"standard", "NPU+TPU"}
	makeWorld := func(label string) *sim.World {
		if label == "NPU+TPU" {
			return npuWorld(opts.Seed)
		}
		return sim.NewWorld(soc.Mi8Pro(), opts.Seed)
	}
	order := []string{"Edge (CPU FP32)", "AutoScale", "Opt"}
	results, err := runCells(opts, len(worldLabels)*len(order), func(i int) (Result, error) {
		w := makeWorld(worldLabels[i/len(order)])
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
			Seed: opts.Seed + 10, WarmupRuns: opts.Warmup}
		var p sched.Policy
		switch order[i%len(order)] {
		case "Edge (CPU FP32)":
			p = sched.EdgeCPU{World: w}
		case "AutoScale":
			p = newLOO(w, opts, sim.NonStreaming, 0, worldLabels[i/len(order)] == "standard")
		default:
			p = sched.Opt{World: w}
		}
		return EvaluatePolicy(p, cfg)
	})
	if err != nil {
		return nil, err
	}
	for wi, label := range worldLabels {
		base := results[wi*len(order)]
		as := results[wi*len(order)+1]
		opt := results[wi*len(order)+2]
		actions := core.NewActionSpace(makeWorld(label)).Len()
		t.AddRow(label, "AutoScale", as.MeanNormPPW(base, cells), as.MeanQoSViolation(cells), actions)
		t.AddRow(label, "Opt", opt.MeanNormPPW(base, cells), opt.MeanQoSViolation(cells), actions)
	}
	t.Notes = append(t.Notes,
		"paper (Section V-C): \"additional actions, such as mobile NPU or cloud TPU, could be "+
			"further considered\"; the NPU/TPU engines are hypothetical profiles (DESIGN.md)")
	return t, nil
}

// npuWorld builds the augmented world: NPU-equipped phone, TPU-equipped
// cloud.
func npuWorld(seed int64) *sim.World {
	w := sim.NewWorld(soc.Mi8ProNPU(), seed)
	w.Server = soc.CloudServerTPU()
	return w
}

// ExtensionSARSA compares the paper's Q-learning against the on-policy
// SARSA alternative it weighs in Section IV, on the standard Mi8Pro world.
func ExtensionSARSA(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-sarsa",
		Title:   "Extension: Q-learning vs SARSA update rule (Section IV design choice)",
		Columns: []string{"Algorithm", "PPW (vs Edge CPU)", "QoS violation"},
	}
	models := dnn.Zoo()
	envs := sim.StaticEnvIDs()
	cells := Cells(models, envs)

	algs := []core.Algorithm{core.AlgorithmQLearning, core.AlgorithmSARSA}
	// Cell 0: baseline; cells 1..len(algs): algorithms; last: Opt.
	results, err := runCells(opts, len(algs)+2, func(i int) (Result, error) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
			Seed: opts.Seed + 10, WarmupRuns: opts.Warmup}
		var p sched.Policy
		switch {
		case i == 0:
			p = sched.EdgeCPU{World: w}
		case i <= len(algs):
			loo := newLOO(w, opts, sim.NonStreaming, 0, true)
			loo.Config.Algorithm = algs[i-1]
			p = loo
		default:
			p = sched.Opt{World: w}
		}
		return EvaluatePolicy(p, cfg)
	})
	if err != nil {
		return nil, err
	}
	base := results[0]
	for ai, alg := range algs {
		res := results[ai+1]
		t.AddRow(alg.String(), res.MeanNormPPW(base, cells), res.MeanQoSViolation(cells))
	}
	opt := results[len(algs)+1]
	t.AddRow("Opt", opt.MeanNormPPW(base, cells), opt.MeanQoSViolation(cells))
	t.Notes = append(t.Notes,
		"the paper picks Q-learning over TD alternatives for lookup-table latency (Section IV); "+
			"both rules share the table, so the overhead is identical and only policy quality differs")
	return t, nil
}

// ExtensionPartition evaluates the paper's footnote 4 extension — layer-
// granularity partition actions on top of AutoScale — against the plain
// engine, the NeuroSurgeon comparator and Opt (which searches whole-model
// targets only).
func ExtensionPartition(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-partition",
		Title:   "Extension: partition actions on top of AutoScale (footnote 4)",
		Columns: []string{"Policy", "PPW (vs Edge CPU)", "QoS violation", "Actions"},
	}
	models := dnn.Zoo()
	envs := sim.StaticEnvIDs()
	cells := Cells(models, envs)

	// Cells: baseline, AutoScale, AutoScale+partition, NeuroSurgeon, Opt.
	results, err := runCells(opts, 5, func(i int) (Result, error) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
			Seed: opts.Seed + 10, WarmupRuns: opts.Warmup}
		var p sched.Policy
		switch i {
		case 0:
			p = sched.EdgeCPU{World: w}
		case 1, 2:
			loo := newLOO(w, opts, sim.NonStreaming, 0, true)
			loo.Config.PartitionActions = i == 2
			p = loo
		case 3:
			p = &sched.NeuroSurgeon{World: w}
		default:
			p = sched.Opt{World: w}
		}
		return EvaluatePolicy(p, cfg)
	})
	if err != nil {
		return nil, err
	}
	base := results[0]
	w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
	for i, label := range []string{"AutoScale", "AutoScale+partition"} {
		res := results[i+1]
		actions := core.NewActionSpace(w).Len()
		if i == 1 {
			actions = core.NewActionSpaceWithPartitions(w).Len()
		}
		t.AddRow(label, res.MeanNormPPW(base, cells), res.MeanQoSViolation(cells), actions)
	}
	ns := results[3]
	t.AddRow("NeuroSurgeon", ns.MeanNormPPW(base, cells), ns.MeanQoSViolation(cells), "-")
	opt := results[4]
	t.AddRow("Opt (whole-model)", opt.MeanNormPPW(base, cells), opt.MeanQoSViolation(cells), "-")
	t.Notes = append(t.Notes,
		"paper (footnote 4): \"model partitioning at layer granularity is complementary to and "+
			"can be applied on top of AutoScale\"; the Opt oracle searches whole-model targets only, "+
			"so AutoScale+partition can exceed it where a split genuinely wins")
	return t, nil
}

// ExtensionOutage evaluates robustness to offload failures: with a per-
// request outage probability on the radio links, blind cloud offloading pays
// the timeout-plus-fallback penalty while AutoScale learns from its realized
// rewards to hedge toward on-device execution — stochastic runtime variance
// beyond what the paper's state space captures.
func ExtensionOutage(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-outage",
		Title:   "Extension: offload-outage robustness (Mi8Pro, S1)",
		Columns: []string{"Outage prob", "Policy", "PPW (vs Edge CPU)", "QoS violation", "Offload share"},
	}
	models := dnn.Zoo()
	envs := []string{sim.EnvS1}
	cells := Cells(models, envs)

	outages := []float64{0, 0.10, 0.30}
	order := []string{"Edge (CPU FP32)", "Cloud", "AutoScale"}
	results, err := runCells(opts, len(outages)*len(order), func(i int) (Result, error) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		w.OutageProb = outages[i/len(order)]
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
			Seed: opts.Seed + 10, WarmupRuns: opts.Warmup}
		var p sched.Policy
		switch order[i%len(order)] {
		case "Edge (CPU FP32)":
			p = sched.EdgeCPU{World: w}
		case "Cloud":
			p = sched.CloudAll{World: w}
		default:
			p = newLOO(w, opts, sim.NonStreaming, 0, w.OutageProb == 0)
		}
		return EvaluatePolicy(p, cfg)
	})
	if err != nil {
		return nil, err
	}
	for oi, outage := range outages {
		base := results[oi*len(order)]
		for pi := 1; pi < len(order); pi++ {
			res := results[oi*len(order)+pi]
			offload := 1 - share(res, sim.Local)
			t.AddRow(outage, res.Policy, res.MeanNormPPW(base, cells), res.MeanQoSViolation(cells), offload)
		}
	}
	t.Notes = append(t.Notes,
		"outages are invisible to the Table I state space; AutoScale still hedges because "+
			"failed offloads feed their timeout-plus-fallback cost into the reward")
	return t, nil
}

// DefaultStorm is the built-in scripted fault schedule the ext-faults
// experiment (and tests) use when no schedule file is given: a Markov
// cloud outage burst, then a WLAN signal fade, then full recovery —
// time-correlated failure dynamics the Bernoulli OutageProb shim cannot
// express.
func DefaultStorm() *fault.Schedule {
	return &fault.Schedule{
		Name: "default-storm",
		Faults: []fault.Spec{
			{Kind: fault.KindOutage, Site: fault.SiteCloud,
				StartS: 2, EndS: 12, MeanDownS: 2, MeanUpS: 0.5},
			{Kind: fault.KindRSSIRamp, Link: fault.LinkWLAN,
				StartS: 12, EndS: 20, DeltaDBm: -30},
			{Kind: fault.KindQueueSpike, Site: fault.SiteConnected,
				StartS: 4, EndS: 8, ExtraServiceS: 0.02},
		},
	}
}

// ExtensionFaults evaluates the scripted fault model: the same Mi8Pro/S1
// evaluation as ext-outage, but under the time-correlated storm schedule
// (Markov cloud outage windows, a WLAN RSSI fade, a connected-edge queue
// spike) instead of an i.i.d. coin flip. Blind cloud offloading eats every
// outage window; the fault-aware Opt oracle routes around scripted
// downtime; AutoScale adapts from realized rewards.
func ExtensionFaults(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	sched1 := opts.Faults
	if sched1 == nil {
		sched1 = DefaultStorm()
	}
	if err := sched1.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-faults",
		Title: fmt.Sprintf("Extension: scripted fault storm %q (Mi8Pro, S1)", sched1.Name),
		Columns: []string{"Faults", "Policy", "PPW (vs Edge CPU)",
			"QoS violation", "Offload share"},
	}
	models := dnn.Zoo()
	envs := []string{sim.EnvS1}
	cells := Cells(models, envs)

	schedules := []*fault.Schedule{nil, sched1}
	labels := []string{"none", sched1.Name}
	order := []string{"Edge (CPU FP32)", "Cloud", "Opt", "AutoScale"}
	results, err := runCells(opts, len(schedules)*len(order), func(i int) (Result, error) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		if s := schedules[i/len(order)]; s != nil {
			w.Faults = fault.New(s, exec.NewRoot(opts.Seed).Child("faults"))
		}
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
			Seed: opts.Seed + 10, WarmupRuns: opts.Warmup}
		var p sched.Policy
		switch order[i%len(order)] {
		case "Edge (CPU FP32)":
			p = sched.EdgeCPU{World: w}
		case "Cloud":
			p = sched.CloudAll{World: w}
		case "Opt":
			p = sched.Opt{World: w, AvoidDown: true}
		default:
			p = newLOO(w, opts, sim.NonStreaming, 0, w.Faults == nil)
		}
		return EvaluatePolicy(p, cfg)
	})
	if err != nil {
		return nil, err
	}
	for si := range schedules {
		base := results[si*len(order)]
		for pi := 1; pi < len(order); pi++ {
			res := results[si*len(order)+pi]
			offload := 1 - share(res, sim.Local)
			t.AddRow(labels[si], res.Policy, res.MeanNormPPW(base, cells),
				res.MeanQoSViolation(cells), offload)
		}
	}
	t.Notes = append(t.Notes,
		"fault windows are keyed on each cell's virtual clock: the same schedule and seed "+
			"replay the exact same outage/fade timeline under any -parallel setting")
	return t, nil
}

// ExtensionLinks evaluates the rest of Table I's radio taxonomy — LTE and
// 5G as the wide-area network (SRSSI_W covers "Wi-Fi, LTE, and 5G") and
// Bluetooth as the peer-to-peer link ("Bluetooth, Wi-Fi Direct") — by
// re-running the Mi8Pro evaluation with each backhaul combination.
func ExtensionLinks(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-links",
		Title:   "Extension: radio taxonomy of Table I (Mi8Pro, static envs)",
		Columns: []string{"WAN", "P2P", "Policy", "PPW (vs Edge CPU)", "QoS violation", "Offload share"},
	}
	models := dnn.Zoo()
	envs := sim.StaticEnvIDs()
	cells := Cells(models, envs)
	combos := []struct {
		wanName string
		p2pName string
	}{
		{"wifi", "wifi-direct"},
		{"lte", "wifi-direct"},
		{"5g", "wifi-direct"},
		{"wifi", "bluetooth"},
	}
	makeWorld := func(ci int) *sim.World {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		switch combos[ci].wanName {
		case "lte":
			w.WiFi = radio.LTE()
		case "5g":
			w.WiFi = radio.FiveG()
		default:
			w.WiFi = radio.WiFi()
		}
		if combos[ci].p2pName == "bluetooth" {
			w.P2P = radio.Bluetooth()
		} else {
			w.P2P = radio.WiFiDirect()
		}
		return w
	}
	order := []string{"Edge (CPU FP32)", "AutoScale", "Opt"}
	results, err := runCells(opts, len(combos)*len(order), func(i int) (Result, error) {
		w := makeWorld(i / len(order))
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs,
			Seed: opts.Seed + 10, WarmupRuns: opts.Warmup}
		var p sched.Policy
		switch order[i%len(order)] {
		case "Edge (CPU FP32)":
			p = sched.EdgeCPU{World: w}
		case "AutoScale":
			p = newLOO(w, opts, sim.NonStreaming, 0, false)
		default:
			p = sched.Opt{World: w}
		}
		return EvaluatePolicy(p, cfg)
	})
	if err != nil {
		return nil, err
	}
	for ci, combo := range combos {
		base := results[ci*len(order)]
		for pi := 1; pi < len(order); pi++ {
			res := results[ci*len(order)+pi]
			t.AddRow(combo.wanName, combo.p2pName, res.Policy,
				res.MeanNormPPW(base, cells), res.MeanQoSViolation(cells), 1-share(res, sim.Local))
		}
	}
	t.Notes = append(t.Notes,
		"cellular backhaul raises transmit power and (for LTE) cuts goodput, pulling the "+
			"optimum on-device for vision; Bluetooth keeps the connected edge viable only for "+
			"tiny payloads like MobileBERT's")
	return t, nil
}

// ExtensionActions ablates the action space itself: how much of the oracle's
// energy efficiency comes from each augmentation the paper adds — DVFS
// steps, quantization, and the offload paths (Section V-C builds the ~66
// actions from exactly these). Each row restricts the oracle's search to a
// subset of the full space.
func ExtensionActions(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-actions",
		Title:   "Extension: action-space ablation (oracle, Mi8Pro, static envs)",
		Columns: []string{"Action space", "PPW (vs Edge CPU)", "QoS violation"},
	}
	models := dnn.Zoo()
	envs := sim.StaticEnvIDs()
	cells := Cells(models, envs)

	filters := []struct {
		label string
		keep  func(w *sim.World, tgt sim.Target) bool
	}{
		{"full (paper)", func(*sim.World, sim.Target) bool { return true }},
		{"no DVFS (top steps only)", func(w *sim.World, tgt sim.Target) bool {
			if tgt.Location != sim.Local {
				return true
			}
			proc := w.Device.Processor(tgt.Kind)
			return tgt.Step == proc.Steps-1
		}},
		{"no quantization (FP32 only)", func(_ *sim.World, tgt sim.Target) bool {
			return tgt.Prec == dnn.FP32
		}},
		{"local only", func(_ *sim.World, tgt sim.Target) bool {
			return tgt.Location == sim.Local
		}},
		{"offload only", func(_ *sim.World, tgt sim.Target) bool {
			return tgt.Location != sim.Local
		}},
	}

	// Cell 0: baseline; cells 1..len(filters): restricted oracles.
	results, err := runCells(opts, len(filters)+1, func(i int) (Result, error) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		cfg := EvalConfig{Models: models, EnvIDs: envs, Runs: opts.Runs, Seed: opts.Seed + 10}
		if i == 0 {
			return EvaluatePolicy(sched.EdgeCPU{World: w}, cfg)
		}
		return EvaluatePolicy(&restrictedOpt{world: w, keep: filters[i-1].keep}, cfg)
	})
	if err != nil {
		return nil, err
	}
	base := results[0]
	for fi, f := range filters {
		res := results[fi+1]
		t.AddRow(f.label, res.MeanNormPPW(base, cells), res.MeanQoSViolation(cells))
	}
	t.Notes = append(t.Notes,
		"quantifies the paper's Section V-C augmentations: the oracle restricted to FP32 or "+
			"to local-only execution loses the wins that quantized engines and offloading provide")
	return t, nil
}

// restrictedOpt is the oracle limited to a target subset.
type restrictedOpt struct {
	world *sim.World
	keep  func(*sim.World, sim.Target) bool
}

// Name implements Policy.
func (p *restrictedOpt) Name() string { return "Opt (restricted)" }

// RunCtx implements sched.Policy: exhaustive expectation search over
// the kept subset, choosing by sim.Choice as sim.World.BestTarget does.
func (p *restrictedOpt) RunCtx(ctx *exec.Context, m *dnn.Model, c sim.Conditions) (sim.Measurement, error) {
	ch := sim.Choice{QoSS: sim.QoSFor(m.Task == dnn.Translation, sim.NonStreaming)}
	ts := p.world.Targets(m)
	for i, tgt := range ts {
		if !p.keep(p.world, tgt) {
			continue
		}
		meas, err := p.world.Expected(m, tgt, c)
		if err != nil {
			return sim.Measurement{}, err
		}
		ch.Offer(i, meas)
	}
	i, _, ok := ch.Result()
	if !ok {
		return sim.Measurement{}, fmt.Errorf("exp: restricted space has no target for %s", m.Name)
	}
	return p.world.ExecuteCtx(ctx, m, ts[i], c)
}
