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
// Figs 9-12 each is a comparison grid whose variants edit the world.

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
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)

	worldLabels := []string{"standard", "NPU+TPU"}
	makeWorld := func(label string) *sim.World {
		if label == "NPU+TPU" {
			return npuWorld(opts.Seed)
		}
		return sim.NewWorld(soc.Mi8Pro(), opts.Seed)
	}
	results, err := compare(opts, len(worldLabels), func(wi int) ([]sched.Policy, EvalConfig) {
		w := makeWorld(worldLabels[wi])
		return []sched.Policy{sched.EdgeCPU{World: w}, newLOO(w, opts, sim.NonStreaming, 0, worldLabels[wi] == "standard"),
			sched.Opt{World: w}}, opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	for wi, label := range worldLabels {
		actions := core.NewActionSpace(makeWorld(label)).Len()
		for _, r := range results[wi][1:] {
			t.AddRow(label, r.Policy, r.MeanNormPPW(results[wi][0], cells), r.MeanQoSViolation(cells), actions)
		}
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
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)

	algs := []core.Algorithm{core.AlgorithmQLearning, core.AlgorithmSARSA}
	results, err := compare(opts, 1, func(int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		lineup := []sched.Policy{sched.EdgeCPU{World: w}}
		for _, alg := range algs {
			loo := newLOO(w, opts, sim.NonStreaming, 0, true)
			loo.Config.Algorithm = alg
			lineup = append(lineup, loo)
		}
		return append(lineup, sched.Opt{World: w}), opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	for i, r := range res[1:] {
		label := r.Policy
		if i < len(algs) {
			label = algs[i].String()
		}
		t.AddRow(label, r.MeanNormPPW(res[0], cells), r.MeanQoSViolation(cells))
	}
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
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)

	results, err := compare(opts, 1, func(int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		split := newLOO(w, opts, sim.NonStreaming, 0, true)
		split.Config.PartitionActions = true
		return []sched.Policy{sched.EdgeCPU{World: w}, newLOO(w, opts, sim.NonStreaming, 0, true), split,
			&sched.NeuroSurgeon{World: w}, sched.Opt{World: w}}, opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
	rows := []struct {
		label   string
		actions any
	}{
		{"AutoScale", core.NewActionSpace(w).Len()},
		{"AutoScale+partition", core.NewActionSpaceWithPartitions(w).Len()},
		{"NeuroSurgeon", "-"},
		{"Opt (whole-model)", "-"},
	}
	for i, row := range rows {
		r := res[i+1]
		t.AddRow(row.label, r.MeanNormPPW(res[0], cells), r.MeanQoSViolation(cells), row.actions)
	}
	t.Notes = append(t.Notes,
		"paper (footnote 4): \"model partitioning at layer granularity is complementary to and "+
			"can be applied on top of AutoScale\"; the Opt oracle searches whole-model targets only, "+
			"so AutoScale+partition can exceed it where a split genuinely wins")
	return t, nil
}

// ExtensionOutage evaluates robustness to offload failures: with a per-
// request outage probability on the radio links, blind cloud offloading pays
// the timeout-plus-fallback penalty while AutoScale learns from its realized
// rewards to retreat toward on-device execution — stochastic runtime variance
// beyond what the paper's state space captures.
func ExtensionOutage(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ext-outage",
		Title:   "Extension: offload-outage robustness (Mi8Pro, S1)",
		Columns: []string{"Outage prob", "Policy", "PPW (vs Edge CPU)", "QoS violation", "Offload share"},
	}
	envs := []string{sim.EnvS1}
	cells := Cells(dnn.Zoo(), envs)

	outages := []float64{0, 0.10, 0.30}
	results, err := compare(opts, len(outages), func(oi int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		w.OutageProb = outages[oi]
		return []sched.Policy{sched.EdgeCPU{World: w}, sched.CloudAll{World: w},
			newLOO(w, opts, sim.NonStreaming, 0, w.OutageProb == 0)}, opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	for oi, outage := range outages {
		for _, r := range results[oi][1:] {
			t.AddRow(outage, r.Policy, r.MeanNormPPW(results[oi][0], cells), r.MeanQoSViolation(cells), 1-share(r, sim.Local))
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
	envs := []string{sim.EnvS1}
	cells := Cells(dnn.Zoo(), envs)

	schedules := []*fault.Schedule{nil, sched1}
	labels := []string{"none", sched1.Name}
	results, err := compare(opts, len(schedules), func(si int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		if s := schedules[si]; s != nil {
			w.Faults = fault.New(s, exec.NewRoot(opts.Seed).Child("faults"))
		}
		return []sched.Policy{sched.EdgeCPU{World: w}, sched.CloudAll{World: w}, sched.Opt{World: w, AvoidDown: true},
			newLOO(w, opts, sim.NonStreaming, 0, w.Faults == nil)}, opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	for si, label := range labels {
		for _, r := range results[si][1:] {
			t.AddRow(label, r.Policy, r.MeanNormPPW(results[si][0], cells), r.MeanQoSViolation(cells), 1-share(r, sim.Local))
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
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)
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
	results, err := compare(opts, len(combos), func(ci int) ([]sched.Policy, EvalConfig) {
		w := makeWorld(ci)
		return []sched.Policy{sched.EdgeCPU{World: w}, newLOO(w, opts, sim.NonStreaming, 0, false), sched.Opt{World: w}},
			opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	for ci, combo := range combos {
		for _, r := range results[ci][1:] {
			t.AddRow(combo.wanName, combo.p2pName, r.Policy,
				r.MeanNormPPW(results[ci][0], cells), r.MeanQoSViolation(cells), 1-share(r, sim.Local))
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
	envs := sim.StaticEnvIDs()
	cells := Cells(dnn.Zoo(), envs)

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

	results, err := compare(opts, 1, func(int) ([]sched.Policy, EvalConfig) {
		w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
		lineup := []sched.Policy{sched.EdgeCPU{World: w}}
		for _, f := range filters {
			lineup = append(lineup, &restrictedOpt{world: w, keep: f.keep})
		}
		return lineup, opts.evalConfig(envs)
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	for fi, f := range filters {
		r := res[fi+1]
		t.AddRow(f.label, r.MeanNormPPW(res[0], cells), r.MeanQoSViolation(cells))
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
