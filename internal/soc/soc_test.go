package soc

import (
	"testing"
	"testing/quick"

	"autoscale/internal/dnn"
)

func allDevices() []*Device {
	return []*Device{Mi8Pro(), GalaxyS10e(), MotoXForce(), GalaxyTabS6(), CloudServer()}
}

func TestDevicesValidate(t *testing.T) {
	for _, d := range allDevices() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestTableIISpecs(t *testing.T) {
	mi8 := Mi8Pro()
	if cpu := mi8.Processor(CPU); cpu.Steps != 23 || cpu.MaxFreqGHz != 2.8 {
		t.Errorf("Mi8Pro CPU = %d steps @ %.1f GHz, want 23 @ 2.8", cpu.Steps, cpu.MaxFreqGHz)
	}
	if gpu := mi8.Processor(GPU); gpu.Steps != 7 || gpu.MaxFreqGHz != 0.7 {
		t.Errorf("Mi8Pro GPU = %d steps @ %.1f GHz, want 7 @ 0.7", gpu.Steps, gpu.MaxFreqGHz)
	}
	if dsp := mi8.Processor(DSP); dsp == nil || dsp.Steps != 1 {
		t.Error("Mi8Pro must have a single-step DSP")
	}
	s10e := GalaxyS10e()
	if cpu := s10e.Processor(CPU); cpu.Steps != 21 || cpu.MaxFreqGHz != 2.7 {
		t.Errorf("S10e CPU = %d steps @ %.1f GHz, want 21 @ 2.7", cpu.Steps, cpu.MaxFreqGHz)
	}
	if s10e.Processor(DSP) != nil {
		t.Error("S10e must not have a DSP")
	}
	moto := MotoXForce()
	if cpu := moto.Processor(CPU); cpu.Steps != 15 || cpu.MaxFreqGHz != 1.9 {
		t.Errorf("Moto CPU = %d steps @ %.1f GHz, want 15 @ 1.9", cpu.Steps, cpu.MaxFreqGHz)
	}
	if gpu := moto.Processor(GPU); gpu.Steps != 6 || gpu.MaxFreqGHz != 0.6 {
		t.Errorf("Moto GPU = %d steps @ %.1f GHz, want 6 @ 0.6", gpu.Steps, gpu.MaxFreqGHz)
	}
	if moto.DRAMGB != 3 {
		t.Errorf("Moto DRAM = %v GB, want 3 (paper Section VI-C)", moto.DRAMGB)
	}
}

func TestPhones(t *testing.T) {
	phones := Phones()
	if len(phones) != 3 {
		t.Fatalf("Phones() = %d", len(phones))
	}
	want := []Class{HighEndWithDSP, HighEndNoDSP, MidEnd}
	for i, p := range phones {
		if p.Class != want[i] {
			t.Errorf("phone %d class = %v, want %v", i, p.Class, want[i])
		}
	}
}

func TestFreqMonotonic(t *testing.T) {
	for _, d := range allDevices() {
		for _, p := range d.Processors {
			prev := -1.0
			for s := 0; s < p.Steps; s++ {
				f := p.FreqRatio(s)
				if f <= prev {
					t.Errorf("%s/%s freq not strictly increasing at step %d", d.Name, p.Name, s)
				}
				prev = f
			}
			if got := p.FreqRatio(p.Steps - 1); got != 1 {
				t.Errorf("%s/%s top-step freq ratio = %v, want 1", d.Name, p.Name, got)
			}
		}
	}
}

func TestFreqClamping(t *testing.T) {
	cpu := Mi8Pro().Processor(CPU)
	if cpu.FreqRatio(-5) != cpu.FreqRatio(0) {
		t.Error("negative step must clamp to 0")
	}
	if cpu.FreqRatio(999) != cpu.FreqRatio(cpu.Steps-1) {
		t.Error("overlarge step must clamp to top")
	}
}

func TestBusyPowerMonotonicAndBounded(t *testing.T) {
	for _, d := range allDevices() {
		for _, p := range d.Processors {
			prev := 0.0
			for s := 0; s < p.Steps; s++ {
				w := p.BusyPowerW(s)
				if w < prev {
					t.Errorf("%s/%s busy power decreases at step %d", d.Name, p.Name, s)
				}
				if w < p.IdleW || w > p.PeakBusyW+1e-9 {
					t.Errorf("%s/%s busy power %v outside [idle %v, peak %v]",
						d.Name, p.Name, w, p.IdleW, p.PeakBusyW)
				}
				prev = w
			}
			if got := p.BusyPowerW(p.Steps - 1); got < p.PeakBusyW-1e-9 {
				t.Errorf("%s/%s top-step power %v below peak %v", d.Name, p.Name, got, p.PeakBusyW)
			}
		}
	}
}

func TestBusyPowerProperty(t *testing.T) {
	cpu := GalaxyS10e().Processor(CPU)
	f := func(step int) bool {
		w := cpu.BusyPowerW(step)
		return w >= cpu.IdleW-1e-12 && w <= cpu.PeakBusyW+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrecisionSpeedups(t *testing.T) {
	mi8 := Mi8Pro()
	cpu, gpu, dsp := mi8.Processor(CPU), mi8.Processor(GPU), mi8.Processor(DSP)
	if cpu.PrecisionSpeedup(dnn.INT8) <= 1 {
		t.Error("CPU INT8 must be faster than FP32")
	}
	if cpu.PrecisionSpeedup(dnn.FP32) != 1 {
		t.Error("CPU FP32 speedup must be 1")
	}
	if gpu.PrecisionSpeedup(dnn.FP16) <= 1 {
		t.Error("GPU FP16 must be faster than FP32")
	}
	if dsp.PrecisionSpeedup(dnn.INT8) != 1 {
		t.Error("DSP is INT8-native; speedup must be 1")
	}
}

func TestCanRun(t *testing.T) {
	mi8 := Mi8Pro()
	bert := dnn.MustByName("MobileBERT")
	resnet := dnn.MustByName("ResNet 50")
	if mi8.Processor(GPU).CanRun(bert, dnn.FP32) {
		t.Error("mobile GPU must not run RC models")
	}
	if mi8.Processor(DSP).CanRun(bert, dnn.INT8) {
		t.Error("mobile DSP must not run RC models")
	}
	if !mi8.Processor(CPU).CanRun(bert, dnn.FP32) {
		t.Error("CPU must run MobileBERT")
	}
	if mi8.Processor(DSP).CanRun(resnet, dnn.FP32) {
		t.Error("DSP must reject FP32")
	}
	if !mi8.Processor(DSP).CanRun(resnet, dnn.INT8) {
		t.Error("DSP must run ResNet 50 at INT8")
	}
	if !CloudServer().Processor(GPU).CanRun(bert, dnn.FP32) {
		t.Error("server GPU must run RC models")
	}
}

func TestLayerEffOrdering(t *testing.T) {
	mi8 := Mi8Pro()
	cpu, gpu, dsp := mi8.Processor(CPU), mi8.Processor(GPU), mi8.Processor(DSP)
	if gpu.Eff(dnn.Conv) <= cpu.Eff(dnn.Conv) {
		t.Error("GPU must be relatively better at CONV than CPU")
	}
	if gpu.Eff(dnn.FC) >= cpu.Eff(dnn.FC) {
		t.Error("CPU must be relatively better at FC than GPU (Fig 3)")
	}
	if dsp.Eff(dnn.FC) >= cpu.Eff(dnn.FC) {
		t.Error("CPU must be relatively better at FC than DSP (Fig 3)")
	}
	// Unknown layer types fall back to 0.5.
	p := &Processor{LayerEff: map[dnn.LayerType]float64{}}
	if p.Eff(dnn.Conv) != 0.5 {
		t.Error("missing efficiency must default to 0.5")
	}
}

func TestThrottleFactor(t *testing.T) {
	if ThrottleFactor(CPU, 0.3) != 1 {
		t.Error("below-onset utilization must not throttle")
	}
	if f := ThrottleFactor(CPU, 1.0); absDiff(f, cpuThrottleFloor) > 1e-9 {
		t.Errorf("full-utilization CPU throttle = %v, want %v", f, cpuThrottleFloor)
	}
	if ThrottleFactor(DSP, 1.0) != 1 {
		t.Error("DSP must never throttle")
	}
	if absDiff(ThrottleFactor(GPU, 1.0), gpuThrottleFloor) > 1e-9 {
		t.Error("GPU floor wrong")
	}
	// Monotonically non-increasing in utilization.
	prev := 2.0
	for u := 0.0; u <= 1.0; u += 0.05 {
		f := ThrottleFactor(CPU, u)
		if f > prev+1e-12 {
			t.Errorf("throttle increased at u=%v", u)
		}
		if f <= 0 || f > 1 {
			t.Errorf("throttle %v out of (0,1] at u=%v", f, u)
		}
		prev = f
	}
	// Clamping.
	if ThrottleFactor(CPU, -1) != 1 || absDiff(ThrottleFactor(CPU, 2), cpuThrottleFloor) > 1e-9 {
		t.Error("utilization clamping broken")
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestValidateRejectsBadProcessors(t *testing.T) {
	good := Mi8Pro().Processor(CPU)
	cases := []func(p *Processor){
		func(p *Processor) { p.Name = "" },
		func(p *Processor) { p.Steps = 0 },
		func(p *Processor) { p.MaxFreqGHz = 0 },
		func(p *Processor) { p.MinFreqRatio = 0 },
		func(p *Processor) { p.MinFreqRatio = 1.5 },
		func(p *Processor) { p.PeakBusyW = p.IdleW },
		func(p *Processor) { p.PeakGMACs = 0 },
		func(p *Processor) { p.Precisions = nil },
	}
	for i, mutate := range cases {
		p := *good
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: expected validation failure", i)
		}
	}
}

func TestDeviceValidateRejectsDuplicates(t *testing.T) {
	d := Mi8Pro()
	d.Processors = append(d.Processors, d.Processors[0])
	if d.Validate() == nil {
		t.Error("duplicate kind should fail validation")
	}
}

func TestKindClassStrings(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || DSP.String() != "DSP" ||
		NPU.String() != "NPU" || TPU.String() != "TPU" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" || Class(9).String() == "" {
		t.Error("out-of-range stringers must not be empty")
	}
	if MidEnd.String() != "mid-end" || Server.String() != "server" {
		t.Error("class names wrong")
	}
}

func TestNPUTPUProfiles(t *testing.T) {
	npu := Mi8ProNPU()
	if err := npu.Validate(); err != nil {
		t.Fatal(err)
	}
	p := npu.Processor(NPU)
	if p == nil {
		t.Fatal("Mi8Pro+NPU lacks the NPU")
	}
	if p.Steps != 1 {
		t.Error("NPU must be fixed-frequency")
	}
	if !p.SupportsPrecision(dnn.INT8) || p.SupportsPrecision(dnn.FP32) {
		t.Error("NPU must be INT8-native")
	}
	if p.CanRun(dnn.MustByName("MobileBERT"), dnn.INT8) {
		t.Error("mobile NPU must reject RC models")
	}
	// The NPU should beat the DSP on raw convolution throughput.
	if dsp := npu.Processor(DSP); p.PeakGMACs <= dsp.PeakGMACs {
		t.Error("NPU should out-rate the DSP")
	}

	tpu := CloudServerTPU()
	if err := tpu.Validate(); err != nil {
		t.Fatal(err)
	}
	tp := tpu.Processor(TPU)
	if tp == nil {
		t.Fatal("CloudServer+TPU lacks the TPU")
	}
	if !tp.SupportsRC {
		t.Error("datacenter TPU must run RC models")
	}
	if gpu := tpu.Processor(GPU); tp.PeakGMACs <= gpu.PeakGMACs {
		t.Error("TPU should out-rate the P100")
	}
}
