package exp

import (
	"fmt"
	"sort"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/perf"
	"autoscale/internal/radio"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// Characterization figures (Section III of the paper). These use the
// noise-free simulator expectations, matching the paper's averaged
// measurements.

func strongSignal() sim.Conditions {
	return sim.Conditions{RSSIWLAN: radio.RegularRSSI, RSSIP2P: radio.RegularRSSI}
}

// Fig2 reproduces Fig 2: energy efficiency (PPW, normalized to Edge (CPU))
// and latency (normalized to the QoS target) of three representative NNs on
// the three phones across edge/connected/cloud targets.
func Fig2(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   "Optimal execution target varies with NN and system (normalized PPW / latency vs QoS)",
		Columns: []string{"Device", "NN", "Target", "PPW (vs Edge CPU)", "Latency/QoS", "Meets QoS"},
	}
	models := []*dnn.Model{
		dnn.MustByName("Inception v1"),
		dnn.MustByName("MobileNet v3"),
		dnn.MustByName("MobileBERT"),
	}
	c := strongSignal()
	for _, dev := range soc.Phones() {
		w := sim.NewWorld(dev, opts.Seed)
		for _, m := range models {
			qos := sim.QoSFor(m.Task == dnn.Translation, sim.NonStreaming)
			targets, err := fig2Targets(w, m)
			if err != nil {
				return nil, err
			}
			baseMeas, err := w.Expected(m, targets["Edge (CPU)"], c)
			if err != nil {
				return nil, err
			}
			names := make([]string, 0, len(targets))
			for name := range targets {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				meas, err := w.Expected(m, targets[name], c)
				if err != nil {
					return nil, err
				}
				t.AddRow(dev.Name, m.Name, name,
					baseMeas.EnergyJ/meas.EnergyJ, meas.LatencyS/qos, meas.LatencyS <= qos)
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: light NNs favor edge on high-end phones, heavy NNs favor cloud; "+
			"mid-end phones always benefit from scaling out")
	return t, nil
}

// fig2Targets enumerates the Fig 2 comparison points for a model on a world.
func fig2Targets(w *sim.World, m *dnn.Model) (map[string]sim.Target, error) {
	cpu := w.Device.Processor(soc.CPU)
	if cpu == nil {
		return nil, fmt.Errorf("exp: device %s has no CPU", w.Device.Name)
	}
	out := map[string]sim.Target{
		"Edge (CPU)": {Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32},
	}
	// Best co-processor at FP-native precision when the model can use it.
	if dsp := w.Device.Processor(soc.DSP); dsp != nil && dsp.CanRun(m, dnn.INT8) {
		out["Edge (DSP)"] = sim.Target{Location: sim.Local, Kind: soc.DSP, Prec: dnn.INT8}
	}
	if gpu := w.Device.Processor(soc.GPU); gpu != nil && gpu.CanRun(m, dnn.FP32) {
		out["Edge (GPU)"] = sim.Target{Location: sim.Local, Kind: soc.GPU, Step: gpu.Steps - 1, Prec: dnn.FP32}
	}
	if w.Feasible(m, sim.Target{Location: sim.Connected, Kind: soc.GPU, Prec: dnn.FP32}) {
		out["Connected (GPU)"] = sim.Target{Location: sim.Connected, Kind: soc.GPU, Prec: dnn.FP32}
	} else {
		out["Connected (CPU)"] = sim.Target{Location: sim.Connected, Kind: soc.CPU, Prec: dnn.FP32}
	}
	out["Cloud (GPU)"] = sim.Target{Location: sim.Cloud, Kind: soc.GPU, Prec: dnn.FP32}
	return out, nil
}

// Fig3 reproduces Fig 3: cumulative latency by layer type for Inception v1
// and MobileNet v3 on the Mi8Pro's CPU, GPU and DSP, normalized to the CPU.
func Fig3(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Per-layer-type latency by processor, normalized to CPU (Mi8Pro)",
		Columns: []string{"NN", "Processor", "CONV", "FC", "Other", "Total"},
	}
	dev := soc.Mi8Pro()
	pen := perf.NoInterference()
	for _, name := range []string{"Inception v1", "MobileNet v3"} {
		m := dnn.MustByName(name)
		type engine struct {
			label string
			exec  perf.Exec
		}
		cpu := dev.Processor(soc.CPU)
		gpu := dev.Processor(soc.GPU)
		dsp := dev.Processor(soc.DSP)
		engines := []engine{
			{"CPU (FP32)", perf.Exec{Proc: cpu, Step: cpu.Steps - 1, Prec: dnn.FP32}},
			{"GPU (FP32)", perf.Exec{Proc: gpu, Step: gpu.Steps - 1, Prec: dnn.FP32}},
			{"DSP (INT8)", perf.Exec{Proc: dsp, Step: 0, Prec: dnn.INT8}},
		}
		base := perf.ModelLatency(engines[0].exec, m, pen)
		for _, e := range engines {
			byType := perf.LatencyByType(e.exec, m, pen)
			var conv, fc, other float64
			for lt, v := range byType {
				switch lt {
				case dnn.Conv:
					conv += v
				case dnn.FC, dnn.RC:
					fc += v
				default:
					other += v
				}
			}
			t.AddRow(m.Name, e.label, conv/base, fc/base, other/base, (conv+fc+other)/base)
		}
	}
	t.Notes = append(t.Notes,
		"paper: FC layers exhibit much longer latency on co-processors; FC-heavy NNs "+
			"(MobileNet v3) run more efficiently on CPUs, CONV-heavy (Inception v1) on co-processors")
	return t, nil
}

// Fig4 reproduces Fig 4: PPW (normalized to Edge CPU FP32) and accuracy per
// execution target/precision, with the optimal target at each accuracy
// requirement.
func Fig4(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "PPW vs inference accuracy per target (Mi8Pro)",
		Columns: []string{"NN", "Target", "PPW (vs CPU FP32)", "Accuracy", "Optimal@50%", "Optimal@65%"},
	}
	w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
	c := strongSignal()
	for _, name := range []string{"Inception v1", "MobileNet v3"} {
		m := dnn.MustByName(name)
		qos := sim.QoSNonStreamingS
		cpu := w.Device.Processor(soc.CPU)
		gpu := w.Device.Processor(soc.GPU)
		targets := []struct {
			label  string
			target sim.Target
		}{
			{"CPU FP32", sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}},
			{"CPU INT8", sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.INT8}},
			{"GPU FP16", sim.Target{Location: sim.Local, Kind: soc.GPU, Step: gpu.Steps - 1, Prec: dnn.FP16}},
			{"DSP INT8", sim.Target{Location: sim.Local, Kind: soc.DSP, Prec: dnn.INT8}},
			{"Cloud FP32", sim.Target{Location: sim.Cloud, Kind: soc.GPU, Prec: dnn.FP32}},
		}
		base, err := w.Expected(m, targets[0].target, c)
		if err != nil {
			return nil, err
		}
		opt50, _, err := w.BestTarget(m, c, qos, 50)
		if err != nil {
			return nil, err
		}
		opt65, _, err := w.BestTarget(m, c, qos, 65)
		if err != nil {
			return nil, err
		}
		for _, tgt := range targets {
			meas, err := w.Expected(m, tgt.target, c)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, tgt.label, base.EnergyJ/meas.EnergyJ, meas.Accuracy,
				tgt.target.SameEngine(opt50), tgt.target.SameEngine(opt65))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: oracle@50%%=%v, oracle@65%%=%v", m.Name, opt50, opt65))
	}
	t.Notes = append(t.Notes,
		"paper: at a 50% accuracy target the low-precision on-device targets win; "+
			"at 65% the optimum shifts toward full-precision/cloud execution")
	return t, nil
}

// Fig5 reproduces Fig 5: PPW and latency of MobileNet v3 under CPU- and
// memory-intensive co-runners, normalized to the CPU with no co-runner.
func Fig5(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Interference shifts the optimal target (MobileNet v3, Mi8Pro)",
		Columns: []string{"Co-runner", "Target", "PPW (vs CPU/no-app)", "Latency/QoS", "Optimal"},
	}
	w := sim.NewWorld(soc.Mi8Pro(), opts.Seed)
	m := dnn.MustByName("MobileNet v3")
	qos := sim.QoSNonStreamingS
	cpu := w.Device.Processor(soc.CPU)
	gpu := w.Device.Processor(soc.GPU)
	targets := []struct {
		label  string
		target sim.Target
	}{
		{"CPU", sim.Target{Location: sim.Local, Kind: soc.CPU, Step: cpu.Steps - 1, Prec: dnn.FP32}},
		{"GPU", sim.Target{Location: sim.Local, Kind: soc.GPU, Step: gpu.Steps - 1, Prec: dnn.FP32}},
		{"DSP", sim.Target{Location: sim.Local, Kind: soc.DSP, Prec: dnn.INT8}},
		{"Connected", sim.Target{Location: sim.Connected, Kind: soc.CPU, Prec: dnn.FP32}},
		{"Cloud", sim.Target{Location: sim.Cloud, Kind: soc.GPU, Prec: dnn.FP32}},
	}
	apps := []struct {
		label string
		load  interfere.Load
	}{
		{"none", interfere.Load{}},
		{"CPU-intensive", interfere.CPUHog().Next()},
		{"memory-intensive", interfere.MemHog().Next()},
	}
	baseCond := strongSignal()
	base, err := w.Expected(m, targets[0].target, baseCond)
	if err != nil {
		return nil, err
	}
	for _, app := range apps {
		c := strongSignal()
		c.Load = app.load
		opt, _, err := w.BestTarget(m, c, qos, 0)
		if err != nil {
			return nil, err
		}
		for _, tgt := range targets {
			meas, err := w.Expected(m, tgt.target, c)
			if err != nil {
				return nil, err
			}
			t.AddRow(app.label, tgt.label, base.EnergyJ/meas.EnergyJ, meas.LatencyS/qos,
				tgt.target.Location == opt.Location && tgt.target.Kind == opt.Kind)
		}
	}
	t.Notes = append(t.Notes,
		"paper: a CPU-intensive co-runner shifts the optimum CPU->GPU; "+
			"a memory-intensive one degrades all on-device engines and shifts it to the cloud")
	return t, nil
}

// Fig6 reproduces Fig 6: PPW and latency of ResNet 50 as the Wi-Fi and
// Wi-Fi Direct signal strengths vary, normalized to the best edge processor.
func Fig6(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Signal strength shifts the optimal target (ResNet 50, Galaxy S10e)",
		Columns: []string{"Signal", "Target", "PPW (vs Edge best)", "Latency/QoS", "Optimal"},
	}
	w := sim.NewWorld(soc.GalaxyS10e(), opts.Seed)
	m := dnn.MustByName("ResNet 50")
	qos := sim.QoSNonStreamingS
	gpu := w.Device.Processor(soc.GPU)
	bestEdge := sim.Target{Location: sim.Local, Kind: soc.GPU, Step: gpu.Steps - 1, Prec: dnn.FP16}
	scenarios := []struct {
		label string
		cond  sim.Conditions
	}{
		{"strong both", sim.Conditions{RSSIWLAN: radio.RegularRSSI, RSSIP2P: radio.RegularRSSI}},
		{"weak Wi-Fi", sim.Conditions{RSSIWLAN: radio.WeakRSSI, RSSIP2P: radio.RegularRSSI}},
		{"weak both", sim.Conditions{RSSIWLAN: radio.WeakRSSI, RSSIP2P: radio.WeakRSSI}},
	}
	targets := []struct {
		label  string
		target sim.Target
	}{
		{"Edge (GPU FP16)", bestEdge},
		{"Connected (DSP)", sim.Target{Location: sim.Connected, Kind: soc.DSP, Prec: dnn.INT8}},
		{"Cloud (GPU)", sim.Target{Location: sim.Cloud, Kind: soc.GPU, Prec: dnn.FP32}},
	}
	base, err := w.Expected(m, bestEdge, scenarios[0].cond)
	if err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		opt, _, err := w.BestTarget(m, sc.cond, qos, 0)
		if err != nil {
			return nil, err
		}
		for _, tgt := range targets {
			meas, err := w.Expected(m, tgt.target, sc.cond)
			if err != nil {
				return nil, err
			}
			t.AddRow(sc.label, tgt.label, base.EnergyJ/meas.EnergyJ, meas.LatencyS/qos,
				tgt.target.Location == opt.Location && tgt.target.Kind == opt.Kind)
		}
	}
	t.Notes = append(t.Notes,
		"paper: weak Wi-Fi shifts the optimum to the locally connected edge; "+
			"weak Wi-Fi Direct as well shifts it back onto the device")
	return t, nil
}
