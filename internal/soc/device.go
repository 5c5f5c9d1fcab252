package soc

import (
	"fmt"

	"autoscale/internal/dnn"
)

// Class positions a device within the paper's taxonomy (Section III).
type Class int

// Device classes used in the evaluation.
const (
	// HighEndWithDSP is a flagship SoC with GPU and an NN-capable DSP
	// (Xiaomi Mi8Pro).
	HighEndWithDSP Class = iota
	// HighEndNoDSP is a flagship SoC with GPU but no programmable DSP
	// (Samsung Galaxy S10e).
	HighEndNoDSP
	// MidEnd is a previous-generation SoC (Motorola Moto X Force).
	MidEnd
	// Tablet is the locally connected higher-end edge device
	// (Samsung Galaxy Tab S6 over Wi-Fi Direct).
	Tablet
	// Server is the cloud system (Xeon E5-2640 + Tesla P100).
	Server
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case HighEndWithDSP:
		return "high-end+DSP"
	case HighEndNoDSP:
		return "high-end"
	case MidEnd:
		return "mid-end"
	case Tablet:
		return "tablet"
	case Server:
		return "server"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Device aggregates the processors of one system plus its platform idle
// power (rails, DRAM refresh, display subsystem share attributed to the
// measurement, as a Monsoon meter would see it).
type Device struct {
	Name       string
	Class      Class
	Processors []*Processor
	// PlatformIdleW is the system-wide idle power outside the engines.
	PlatformIdleW float64
	// DRAMGB is installed memory (the paper quotes a 3 GB mid-end device
	// when sizing the Q-table footprint).
	DRAMGB float64
}

// Processor returns the device's engine of the given kind, or nil.
func (d *Device) Processor(k Kind) *Processor {
	for _, p := range d.Processors {
		if p.Kind == k {
			return p
		}
	}
	return nil
}

// Validate checks the device and all its processors.
func (d *Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("soc: device has no name")
	}
	if len(d.Processors) == 0 {
		return fmt.Errorf("soc: device %s has no processors", d.Name)
	}
	seen := make(map[Kind]bool)
	for _, p := range d.Processors {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("device %s: %w", d.Name, err)
		}
		if seen[p.Kind] {
			return fmt.Errorf("soc: device %s has duplicate %s", d.Name, p.Kind)
		}
		seen[p.Kind] = true
	}
	return nil
}

// Per-kind layer-efficiency profiles. CPUs are balanced and the best place
// for FC/RC work; GPUs excel at convolutions but collapse on FC layers
// (reduction-heavy, little parallelism) and pay per-kernel launch costs;
// DSPs are convolution engines with even weaker FC paths. These asymmetries
// are what Fig 3 of the paper measures.
func cpuEff() map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: 0.60, dnn.FC: 0.90, dnn.RC: 0.70,
		dnn.Pool: 0.50, dnn.Norm: 0.50, dnn.Softmax: 0.50, dnn.Argmax: 0.50, dnn.Dropout: 0.50,
	}
}

func gpuEff() map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: 1.00, dnn.FC: 0.05, dnn.RC: 0.10,
		dnn.Pool: 0.60, dnn.Norm: 0.60, dnn.Softmax: 0.30, dnn.Argmax: 0.30, dnn.Dropout: 0.60,
	}
}

func dspEff() map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: 1.00, dnn.FC: 0.04, dnn.RC: 0.05,
		dnn.Pool: 0.50, dnn.Norm: 0.50, dnn.Softmax: 0.20, dnn.Argmax: 0.20, dnn.Dropout: 0.50,
	}
}

// serverGPUEff: datacenter GPUs (and cuDNN-era runtimes) handle FC/RC far
// better than mobile co-processor stacks.
func serverGPUEff() map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: 1.00, dnn.FC: 0.50, dnn.RC: 0.35,
		dnn.Pool: 0.70, dnn.Norm: 0.70, dnn.Softmax: 0.50, dnn.Argmax: 0.50, dnn.Dropout: 0.70,
	}
}

func cpuOverhead(perLayer float64) map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: perLayer, dnn.FC: perLayer, dnn.RC: perLayer,
		dnn.Pool: perLayer / 2, dnn.Norm: perLayer / 2, dnn.Softmax: perLayer / 2,
		dnn.Argmax: perLayer / 2, dnn.Dropout: perLayer / 2,
	}
}

// coprocOverhead gives co-processors a per-kernel launch cost plus a much
// larger FC/RC marshalling cost (host round-trips around reductions).
func coprocOverhead(launch, fcSync float64) map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: launch, dnn.FC: fcSync, dnn.RC: fcSync,
		dnn.Pool: launch, dnn.Norm: launch, dnn.Softmax: launch,
		dnn.Argmax: launch, dnn.Dropout: launch,
	}
}

const (
	us = 1e-6
	ms = 1e-3
)

// Mi8Pro returns the Xiaomi Mi8Pro profile: Cortex-A75 CPU (2.8 GHz, 23 V/F
// steps), Adreno 630 GPU (0.7 GHz, 7 V/F steps), Hexagon 685 DSP (Table II).
func Mi8Pro() *Device {
	return &Device{
		Name:          "Mi8Pro",
		Class:         HighEndWithDSP,
		PlatformIdleW: 1.20,
		DRAMGB:        6,
		Processors: []*Processor{
			{
				Name: "Cortex-A75", Kind: CPU, Steps: 23,
				MaxFreqGHz: 2.8, MinFreqRatio: 0.30,
				PeakBusyW: 5.5, IdleW: 0.25,
				PeakGMACs: 28, MemBWGBs: 24,
				LayerEff: cpuEff(), LayerOverheadS: cpuOverhead(15 * us),
				Precisions: []dnn.Precision{dnn.FP32, dnn.INT8},
				SupportsRC: true,
			},
			{
				Name: "Adreno 630", Kind: GPU, Steps: 7,
				MaxFreqGHz: 0.7, MinFreqRatio: 0.40,
				PeakBusyW: 2.8, IdleW: 0.15,
				PeakGMACs: 70, MemBWGBs: 20,
				LayerEff: gpuEff(), LayerOverheadS: coprocOverhead(80*us, 1.2*ms),
				Precisions: []dnn.Precision{dnn.FP32, dnn.FP16},
			},
			{
				Name: "Hexagon 685", Kind: DSP, Steps: 1,
				MaxFreqGHz: 1.2, MinFreqRatio: 1,
				PeakBusyW: 1.8, IdleW: 0.10,
				PeakGMACs: 180, MemBWGBs: 18,
				LayerEff: dspEff(), LayerOverheadS: coprocOverhead(100*us, 1.5*ms),
				Precisions: []dnn.Precision{dnn.INT8},
			},
		},
	}
}

// GalaxyS10e returns the Samsung Galaxy S10e profile: Mongoose CPU (2.7 GHz,
// 21 V/F steps) and Mali-G76 GPU (0.7 GHz, 9 V/F steps); no programmable DSP.
func GalaxyS10e() *Device {
	return &Device{
		Name:          "GalaxyS10e",
		Class:         HighEndNoDSP,
		PlatformIdleW: 1.20,
		DRAMGB:        6,
		Processors: []*Processor{
			{
				Name: "Mongoose-M4", Kind: CPU, Steps: 21,
				MaxFreqGHz: 2.7, MinFreqRatio: 0.30,
				PeakBusyW: 5.6, IdleW: 0.25,
				PeakGMACs: 26, MemBWGBs: 26,
				LayerEff: cpuEff(), LayerOverheadS: cpuOverhead(15 * us),
				Precisions: []dnn.Precision{dnn.FP32, dnn.INT8},
				SupportsRC: true,
			},
			{
				Name: "Mali-G76", Kind: GPU, Steps: 9,
				MaxFreqGHz: 0.7, MinFreqRatio: 0.40,
				PeakBusyW: 2.4, IdleW: 0.15,
				PeakGMACs: 60, MemBWGBs: 22,
				LayerEff: gpuEff(), LayerOverheadS: coprocOverhead(90*us, 1.3*ms),
				Precisions: []dnn.Precision{dnn.FP32, dnn.FP16},
			},
		},
	}
}

// MotoXForce returns the Motorola Moto X Force profile: Cortex-A57 CPU
// (1.9 GHz, 15 V/F steps) and Adreno 430 GPU (0.6 GHz, 6 V/F steps) — the
// paper's mid-end device with the widest market coverage.
func MotoXForce() *Device {
	return &Device{
		Name:          "MotoXForce",
		Class:         MidEnd,
		PlatformIdleW: 1.00,
		DRAMGB:        3,
		Processors: []*Processor{
			{
				Name: "Cortex-A57", Kind: CPU, Steps: 15,
				MaxFreqGHz: 1.9, MinFreqRatio: 0.30,
				PeakBusyW: 3.6, IdleW: 0.20,
				PeakGMACs: 12, MemBWGBs: 13,
				LayerEff: cpuEff(), LayerOverheadS: cpuOverhead(25 * us),
				Precisions: []dnn.Precision{dnn.FP32, dnn.INT8},
				SupportsRC: true,
			},
			{
				Name: "Adreno 430", Kind: GPU, Steps: 6,
				MaxFreqGHz: 0.6, MinFreqRatio: 0.40,
				PeakBusyW: 2.0, IdleW: 0.12,
				PeakGMACs: 12, MemBWGBs: 12,
				LayerEff: gpuEff(), LayerOverheadS: coprocOverhead(150*us, 2.0*ms),
				Precisions: []dnn.Precision{dnn.FP32, dnn.FP16},
			},
		},
	}
}

// GalaxyTabS6 returns the locally connected tablet profile: Cortex-A76 CPU
// (2.84 GHz), Adreno 640 GPU, Hexagon 690 DSP (Section V-A).
func GalaxyTabS6() *Device {
	return &Device{
		Name:          "GalaxyTabS6",
		Class:         Tablet,
		PlatformIdleW: 1.50,
		DRAMGB:        8,
		Processors: []*Processor{
			{
				Name: "Cortex-A76", Kind: CPU, Steps: 20,
				MaxFreqGHz: 2.84, MinFreqRatio: 0.30,
				PeakBusyW: 6.0, IdleW: 0.25,
				PeakGMACs: 36, MemBWGBs: 30,
				LayerEff: cpuEff(), LayerOverheadS: cpuOverhead(13 * us),
				Precisions: []dnn.Precision{dnn.FP32, dnn.INT8},
				SupportsRC: true,
			},
			{
				Name: "Adreno 640", Kind: GPU, Steps: 8,
				MaxFreqGHz: 0.75, MinFreqRatio: 0.40,
				PeakBusyW: 3.2, IdleW: 0.15,
				PeakGMACs: 95, MemBWGBs: 26,
				LayerEff: gpuEff(), LayerOverheadS: coprocOverhead(70*us, 1.1*ms),
				Precisions: []dnn.Precision{dnn.FP32, dnn.FP16},
			},
			{
				Name: "Hexagon 690", Kind: DSP, Steps: 1,
				MaxFreqGHz: 1.4, MinFreqRatio: 1,
				PeakBusyW: 2.0, IdleW: 0.10,
				PeakGMACs: 240, MemBWGBs: 22,
				LayerEff: dspEff(), LayerOverheadS: coprocOverhead(90*us, 1.4*ms),
				Precisions: []dnn.Precision{dnn.INT8},
			},
		},
	}
}

// CloudServer returns the cloud profile: Intel Xeon E5-2640 (2.4 GHz, 40
// cores) and NVIDIA Tesla P100 (Section V-A). Server power draws are large
// but are not billed to the device's battery; the mobile side pays only the
// radio and the wait (eq 4 of the paper). The busy powers here are used when
// reporting datacenter-side energy in diagnostics.
func CloudServer() *Device {
	return &Device{
		Name:          "CloudServer",
		Class:         Server,
		PlatformIdleW: 60,
		DRAMGB:        256,
		Processors: []*Processor{
			{
				Name: "Xeon E5-2640", Kind: CPU, Steps: 15,
				MaxFreqGHz: 2.4, MinFreqRatio: 0.50,
				PeakBusyW: 90, IdleW: 30,
				PeakGMACs: 220, MemBWGBs: 60,
				LayerEff: cpuEff(), LayerOverheadS: cpuOverhead(8 * us),
				Precisions: []dnn.Precision{dnn.FP32},
				SupportsRC: true,
			},
			{
				Name: "Tesla P100", Kind: GPU, Steps: 10,
				MaxFreqGHz: 1.33, MinFreqRatio: 0.40,
				PeakBusyW: 250, IdleW: 30,
				PeakGMACs: 4500, MemBWGBs: 500,
				LayerEff: serverGPUEff(), LayerOverheadS: coprocOverhead(30*us, 150*us),
				Precisions: []dnn.Precision{dnn.FP32},
				SupportsRC: true,
			},
		},
	}
}

// Phones returns the three evaluation smartphones in Table II order.
func Phones() []*Device {
	return []*Device{Mi8Pro(), GalaxyS10e(), MotoXForce()}
}

// npuEff: mobile NPUs are convolution/GEMM engines with a better FC path
// than DSPs (dedicated matrix units) but still no recurrent-layer runtime.
func npuEff() map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: 1.00, dnn.FC: 0.15, dnn.RC: 0.10,
		dnn.Pool: 0.60, dnn.Norm: 0.60, dnn.Softmax: 0.30, dnn.Argmax: 0.30, dnn.Dropout: 0.60,
	}
}

// tpuEff: datacenter matrix engines handle FC and attention workloads well.
func tpuEff() map[dnn.LayerType]float64 {
	return map[dnn.LayerType]float64{
		dnn.Conv: 1.00, dnn.FC: 0.60, dnn.RC: 0.50,
		dnn.Pool: 0.70, dnn.Norm: 0.70, dnn.Softmax: 0.50, dnn.Argmax: 0.50, dnn.Dropout: 0.70,
	}
}

// Mi8ProNPU returns a hypothetical NPU-equipped variant of the Mi8Pro — the
// paper's Section V-C extension ("additional actions, such as mobile NPU
// ... could be further considered"; the paper could not program the NPUs of
// its day because vendor SDKs were unreleased). The NPU is an INT8-native
// fixed-frequency engine faster and leaner than the Hexagon DSP.
func Mi8ProNPU() *Device {
	d := Mi8Pro()
	d.Name = "Mi8Pro+NPU"
	d.Processors = append(d.Processors, &Processor{
		Name: "NPU", Kind: NPU, Steps: 1,
		MaxFreqGHz: 1.0, MinFreqRatio: 1,
		PeakBusyW: 1.5, IdleW: 0.08,
		PeakGMACs: 320, MemBWGBs: 25,
		LayerEff: npuEff(), LayerOverheadS: coprocOverhead(60*us, 1.0*ms),
		Precisions: []dnn.Precision{dnn.INT8},
	})
	return d
}

// CloudServerTPU returns the cloud profile augmented with a TPU-class
// matrix accelerator — the other half of the Section V-C extension note.
func CloudServerTPU() *Device {
	d := CloudServer()
	d.Name = "CloudServer+TPU"
	d.Processors = append(d.Processors, &Processor{
		Name: "TPU", Kind: TPU, Steps: 8,
		MaxFreqGHz: 0.94, MinFreqRatio: 0.50,
		PeakBusyW: 200, IdleW: 25,
		PeakGMACs: 12000, MemBWGBs: 600,
		LayerEff: tpuEff(), LayerOverheadS: coprocOverhead(25*us, 120*us),
		Precisions: []dnn.Precision{dnn.FP32},
		SupportsRC: true,
	})
	return d
}
