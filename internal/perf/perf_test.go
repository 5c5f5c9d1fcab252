package perf

import (
	"math"
	"math/rand"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/soc"
)

func mi8CPU() Exec {
	cpu := soc.Mi8Pro().Processor(soc.CPU)
	return Exec{Proc: cpu, Step: cpu.Steps - 1, Prec: dnn.FP32}
}

func mi8GPU() Exec {
	gpu := soc.Mi8Pro().Processor(soc.GPU)
	return Exec{Proc: gpu, Step: gpu.Steps - 1, Prec: dnn.FP32}
}

func mi8DSP() Exec {
	return Exec{Proc: soc.Mi8Pro().Processor(soc.DSP), Prec: dnn.INT8}
}

func TestExecValidate(t *testing.T) {
	if err := mi8CPU().Validate(); err != nil {
		t.Error(err)
	}
	if (Exec{}).Validate() == nil {
		t.Error("nil processor should fail")
	}
	bad := mi8DSP()
	bad.Prec = dnn.FP32
	if bad.Validate() == nil {
		t.Error("DSP at FP32 should fail")
	}
}

func TestCanRun(t *testing.T) {
	bert := dnn.MustByName("MobileBERT")
	if mi8GPU().CanRun(bert) {
		t.Error("mobile GPU must reject MobileBERT")
	}
	if !mi8CPU().CanRun(bert) {
		t.Error("CPU must accept MobileBERT")
	}
}

func TestModelLatencySumsLayers(t *testing.T) {
	m := dnn.MustByName("Inception v1")
	pen := NoInterference()
	var sum float64
	for _, l := range m.Layers {
		v := LayerLatency(mi8CPU(), l, pen)
		if v <= 0 {
			t.Fatal("layer latency must be positive")
		}
		sum += v
	}
	if total := ModelLatency(mi8CPU(), m, pen); math.Abs(total-sum) > 1e-12 {
		t.Errorf("ModelLatency %v != sum %v", total, sum)
	}
	byType := LatencyByType(mi8CPU(), m, pen)
	var typeSum float64
	for _, v := range byType {
		typeSum += v
	}
	if math.Abs(typeSum-sum) > 1e-9 {
		t.Errorf("LatencyByType sum %v != %v", typeSum, sum)
	}
}

func TestDVFSMonotonic(t *testing.T) {
	m := dnn.MustByName("MobileNet v1")
	pen := NoInterference()
	cpu := soc.Mi8Pro().Processor(soc.CPU)
	prev := math.Inf(1)
	for s := 0; s < cpu.Steps; s++ {
		lat := ModelLatency(Exec{Proc: cpu, Step: s, Prec: dnn.FP32}, m, pen)
		if lat >= prev {
			t.Errorf("latency did not shrink at step %d", s)
		}
		prev = lat
	}
}

func TestQuantizationSpeedsUpCPU(t *testing.T) {
	m := dnn.MustByName("MobileNet v2")
	pen := NoInterference()
	cpu := soc.Mi8Pro().Processor(soc.CPU)
	fp32 := ModelLatency(Exec{Proc: cpu, Step: cpu.Steps - 1, Prec: dnn.FP32}, m, pen)
	int8 := ModelLatency(Exec{Proc: cpu, Step: cpu.Steps - 1, Prec: dnn.INT8}, m, pen)
	if int8 >= fp32 {
		t.Errorf("INT8 (%v) must beat FP32 (%v) on CPU", int8, fp32)
	}
}

func TestFig3Shapes(t *testing.T) {
	pen := NoInterference()
	// CONV-heavy Inception v1 runs faster on co-processors...
	iv1 := dnn.MustByName("Inception v1")
	cpuLat := ModelLatency(mi8CPU(), iv1, pen)
	gpuLat := ModelLatency(mi8GPU(), iv1, pen)
	dspLat := ModelLatency(mi8DSP(), iv1, pen)
	if gpuLat >= cpuLat || dspLat >= cpuLat {
		t.Errorf("Inception v1: GPU %v / DSP %v must beat CPU %v", gpuLat, dspLat, cpuLat)
	}
	// ...while FC-heavy MobileNet v3 runs faster on the CPU (Fig 3).
	mbv3 := dnn.MustByName("MobileNet v3")
	cpuLat = ModelLatency(mi8CPU(), mbv3, pen)
	gpuLat = ModelLatency(mi8GPU(), mbv3, pen)
	if cpuLat >= gpuLat {
		t.Errorf("MobileNet v3: CPU %v must beat GPU %v", cpuLat, gpuLat)
	}
	// The FC share of MobileNet v3 dominates its GPU time.
	byType := LatencyByType(mi8GPU(), mbv3, pen)
	if byType[dnn.FC] <= byType[dnn.Conv] {
		t.Errorf("MobileNet v3 on GPU: FC time %v must dominate CONV %v",
			byType[dnn.FC], byType[dnn.Conv])
	}
}

func TestInterferenceSlowsDown(t *testing.T) {
	m := dnn.MustByName("MobileNet v3")
	base := ModelLatency(mi8CPU(), m, NoInterference())
	cpuHog := ModelLatency(mi8CPU(), m, interfere.PenaltiesFor(interfere.CPUHog().Next()))
	if cpuHog <= base*1.5 {
		t.Errorf("CPU hog slowdown too small: %v vs %v", cpuHog, base)
	}
	memHog := ModelLatency(mi8CPU(), m, interfere.PenaltiesFor(interfere.MemHog().Next()))
	if memHog <= base {
		t.Error("memory hog must slow the CPU")
	}
	// A CPU hog barely touches the DSP; a memory hog slows it.
	dspBase := ModelLatency(mi8DSP(), m, NoInterference())
	dspCPUHog := ModelLatency(mi8DSP(), m, interfere.PenaltiesFor(interfere.CPUHog().Next()))
	dspMemHog := ModelLatency(mi8DSP(), m, interfere.PenaltiesFor(interfere.MemHog().Next()))
	if dspCPUHog > dspBase*1.2 {
		t.Errorf("CPU hog slowed the DSP too much: %v vs %v", dspCPUHog, dspBase)
	}
	if dspMemHog <= dspBase*1.2 {
		t.Errorf("memory hog must slow the DSP: %v vs %v", dspMemHog, dspBase)
	}
}

func TestOverheadDominatesTinyLayers(t *testing.T) {
	// A layer with negligible work still costs the dispatch overhead.
	tiny := dnn.Layer{Name: "tiny", Type: dnn.Conv, MACs: 1}
	gpu := mi8GPU()
	lat := LayerLatency(gpu, tiny, NoInterference())
	if lat < gpu.Proc.Overhead(dnn.Conv) {
		t.Errorf("latency %v below dispatch overhead", lat)
	}
}

func TestRooflineMemoryBound(t *testing.T) {
	// A layer with huge traffic and no compute is bound by memory time.
	l := dnn.Layer{Name: "membound", Type: dnn.FC, MACs: 1, WeightBytes: 1e9}
	cpu := mi8CPU()
	lat := LayerLatency(cpu, l, NoInterference())
	wantMem := 1e9 / (cpu.Proc.MemBWGBs * 1e9)
	if lat < wantMem {
		t.Errorf("latency %v below memory time %v", lat, wantMem)
	}
}

// The compiled plan must reproduce the per-layer walk bit for bit — == on
// the float64, not a tolerance — so no simulated joule or millisecond can
// move when a plan replaces the walk. A change that reassociates a product
// or hoists a divide fails here.
func TestPlanMatchesLayerWalk(t *testing.T) {
	custom, err := dnn.NewModel("custom", dnn.ImageClassification, []dnn.Layer{
		{Name: "c0", Type: dnn.Conv, MACs: 3.1e8, WeightBytes: 1.7e6, ActivationBytes: 9.3e5},
		{Name: "d0", Type: dnn.Dropout, MACs: 1e3, ActivationBytes: 4e5},
		{Name: "n0", Type: dnn.Norm, ActivationBytes: 4e5},
		{Name: "p0", Type: dnn.Pool, MACs: 2e5, ActivationBytes: 1e5},
		{Name: "f0", Type: dnn.FC, MACs: 4.1e6, WeightBytes: 1.6e7, ActivationBytes: 4e3},
		{Name: "s0", Type: dnn.Softmax, MACs: 1e3, ActivationBytes: 4e3},
		{Name: "a0", Type: dnn.Argmax, MACs: 1e3, ActivationBytes: 4},
	}, 150528, 4000, map[dnn.Precision]float64{dnn.FP32: 70})
	if err != nil {
		t.Fatal(err)
	}
	models := append(dnn.Zoo(), custom)

	rng := rand.New(rand.NewSource(19))
	loads := []interfere.Load{{}, {CPUUtil: 1}, {MemUtil: 1}, {CPUUtil: 1.7, MemUtil: 2.5}, {CPUUtil: -0.3, MemUtil: 0.6}}
	for len(loads) < 25 {
		loads = append(loads, interfere.Load{CPUUtil: 1.2 * rng.Float64(), MemUtil: 1.2 * rng.Float64()})
	}

	devices := []*soc.Device{
		soc.Mi8Pro(), soc.GalaxyS10e(), soc.MotoXForce(), soc.GalaxyTabS6(),
		soc.CloudServer(), soc.Mi8ProNPU(), soc.CloudServerTPU(),
	}
	compared := 0
	for _, d := range devices {
		for _, proc := range d.Processors {
			for _, prec := range proc.Precisions {
				for _, m := range models {
					e := Exec{Proc: proc, Prec: prec}
					plan := Compile(e, m)
					for e.Step = 0; e.Step < proc.Steps; e.Step++ {
						for _, load := range loads {
							pen := interfere.PenaltiesFor(load)
							got, want := plan.Latency(e.Step, pen), ModelLatency(e, m, pen)
							if got != want {
								t.Fatalf("%s/%s %s %s step %d load %+v: plan %v, layer walk %v",
									d.Name, proc.Name, prec, m.Name, e.Step, load, got, want)
							}
							compared++
						}
					}
				}
			}
		}
	}
	if compared < 40000 {
		t.Fatalf("only %d comparisons ran", compared)
	}
}

// BenchmarkLatency prices one loaded ResNet 50 evaluation on the Mi8Pro CPU
// by the reference layer walk and by the compiled plan.
func BenchmarkLatency(b *testing.B) {
	m := dnn.MustByName("ResNet 50")
	e := mi8CPU()
	pen := interfere.PenaltiesFor(interfere.Load{CPUUtil: 0.6, MemUtil: 0.5})
	var sink float64
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += ModelLatency(e, m, pen)
		}
	})
	b.Run("plan", func(b *testing.B) {
		plan := Compile(e, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += plan.Latency(e.Step, pen)
		}
	})
	_ = sink
}
