// Package autoscale is a Go reproduction of "AutoScale: Energy Efficiency
// Optimization for Stochastic Edge Inference Using Reinforcement Learning"
// (Kim & Wu, MICRO 2020).
//
// AutoScale decides, for every DNN inference request on a mobile device,
// where to run it — on one of the device's own processors (CPU/GPU/DSP, at a
// chosen DVFS step and numeric precision), on a locally connected edge
// device over Wi-Fi Direct, or in the cloud over Wi-Fi — so as to maximize
// energy efficiency while meeting latency (QoS) and accuracy constraints.
// The decision engine is tabular Q-learning over a discretized state of NN
// characteristics and stochastic runtime variance (co-running-app
// interference and radio signal strength).
//
// Because the paper's testbed (three phones, a tablet, a GPU server, a power
// meter and real radios) cannot ship in a library, this package runs against
// a calibrated simulator that reproduces the testbed's relative latency and
// power profiles; see DESIGN.md for the fidelity argument and EXPERIMENTS.md
// for paper-versus-measured results of every table and figure.
//
// # Quick start
//
//	world, _ := autoscale.NewWorld(autoscale.Mi8Pro, 1)
//	engine, _ := autoscale.NewEngine(world, autoscale.DefaultEngineConfig())
//	env, _ := autoscale.NewEnvironment(autoscale.EnvD2, 1) // web browser co-running
//	model, _ := autoscale.Model("MobileNet v3")
//	for i := 0; i < 200; i++ {
//	    d, _ := engine.RunInferenceCtx(nil, model, env.Sample())
//	    fmt.Println(d.Target, d.Measurement.LatencyS, d.Measurement.EnergyJ)
//	}
package autoscale

import (
	"fmt"

	"autoscale/internal/battery"
	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exp"
	"autoscale/internal/rl"
	"autoscale/internal/sched"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// Core engine types (see internal/core for full documentation).
type (
	// Engine is the AutoScale execution-scaling engine (observe ->
	// select -> execute -> reward -> update).
	Engine = core.Engine
	// EngineConfig assembles an Engine.
	EngineConfig = core.Config
	// EngineHealth is a read-only snapshot of an engine's learning health:
	// epsilon, Q-table coverage, visit entropy, TD-error EMA, windowed mean
	// reward (see Engine.Health).
	EngineHealth = core.Health
	// Decision records one engine step.
	Decision = core.Decision
	// StateSpace is the Table I state discretization.
	StateSpace = core.StateSpace
	// Observation is one raw state sample.
	Observation = core.Observation
	// RewardConfig parameterizes the reward of equation (5).
	RewardConfig = core.RewardConfig
	// ActionSpace is the DVFS/quantization-augmented action list.
	ActionSpace = core.ActionSpace
)

// Simulation types.
type (
	// World is the edge-cloud execution environment around one device.
	World = sim.World
	// Target is one execution action (location, engine, DVFS step,
	// precision).
	Target = sim.Target
	// Conditions is the stochastic runtime variance at one inference.
	Conditions = sim.Conditions
	// Measurement is an observed inference outcome.
	Measurement = sim.Measurement
	// Environment is one of the Table IV runtime environments.
	Environment = sim.Environment
	// Intensity selects the computer-vision usage mode.
	Intensity = sim.Intensity
)

// Workload types.
type (
	// DNNModel is an inference workload from the Table III zoo.
	DNNModel = dnn.Model
	// Precision is a numeric execution format.
	Precision = dnn.Precision
	// Task is an application domain (image classification, object
	// detection, translation).
	Task = dnn.Task
)

// Tasks of the zoo networks.
const (
	ImageClassification = dnn.ImageClassification
	ObjectDetection     = dnn.ObjectDetection
	Translation         = dnn.Translation
)

// Policy and experiment types.
type (
	// Policy decides and executes inference requests (baselines, prior
	// work, and the AutoScale adapters).
	Policy = sched.Policy
	// ExperimentTable is the rendered output of one experiment.
	ExperimentTable = exp.Table
	// ExperimentOptions controls experiment fidelity.
	ExperimentOptions = exp.Options
	// ExperimentRun is the outcome of one experiment in a RunExperiments
	// batch: its table (or error) plus the wall-clock it took.
	ExperimentRun = exp.RunOutcome
	// RLConfig holds Q-learning hyperparameters.
	RLConfig = rl.Config
)

// Device names accepted by NewWorld.
const (
	// Mi8Pro is the high-end phone with GPU and DSP.
	Mi8Pro = "Mi8Pro"
	// GalaxyS10e is the high-end phone with GPU but no DSP.
	GalaxyS10e = "GalaxyS10e"
	// MotoXForce is the mid-end phone.
	MotoXForce = "MotoXForce"
)

// Environment IDs of Table IV.
const (
	EnvS1 = sim.EnvS1
	EnvS2 = sim.EnvS2
	EnvS3 = sim.EnvS3
	EnvS4 = sim.EnvS4
	EnvS5 = sim.EnvS5
	EnvD1 = sim.EnvD1
	EnvD2 = sim.EnvD2
	EnvD3 = sim.EnvD3
	EnvD4 = sim.EnvD4
)

// Usage intensities.
const (
	NonStreaming = sim.NonStreaming
	Streaming    = sim.Streaming
)

// Execution locations.
const (
	LocationLocal     = sim.Local
	LocationConnected = sim.Connected
	LocationCloud     = sim.Cloud
)

// Precisions.
const (
	FP32 = dnn.FP32
	FP16 = dnn.FP16
	INT8 = dnn.INT8
)

// DeviceNames returns the evaluation phone names in Table II order.
func DeviceNames() []string { return []string{Mi8Pro, GalaxyS10e, MotoXForce} }

// NewWorld builds the standard edge-cloud world around the named phone (with
// the Galaxy Tab S6 as the connected edge and a Xeon+P100 server as the
// cloud), seeded for measurement noise.
func NewWorld(device string, seed int64) (*World, error) {
	var d *soc.Device
	switch device {
	case Mi8Pro:
		d = soc.Mi8Pro()
	case GalaxyS10e:
		d = soc.GalaxyS10e()
	case MotoXForce:
		d = soc.MotoXForce()
	default:
		return nil, fmt.Errorf("autoscale: unknown device %q (known: %v)", device, DeviceNames())
	}
	return sim.NewWorld(d, seed), nil
}

// DefaultEngineConfig returns the paper's engine configuration.
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// NewEngine builds an AutoScale engine for a world.
func NewEngine(w *World, cfg EngineConfig) (*Engine, error) { return core.NewEngine(w, cfg) }

// NewEnvironment constructs a Table IV environment by ID.
func NewEnvironment(id string, seed int64) (*Environment, error) {
	return sim.NewEnvironment(id, seed)
}

// Models returns the ten-network zoo of Table III.
func Models() []*DNNModel { return dnn.Zoo() }

// Layer and LayerType describe custom-model construction.
type (
	// Layer is one functional layer of a network.
	Layer = dnn.Layer
	// LayerType classifies a layer (CONV, FC, RC, ...).
	LayerType = dnn.LayerType
)

// Layer types for custom models.
const (
	Conv    = dnn.Conv
	FC      = dnn.FC
	RC      = dnn.RC
	Pool    = dnn.Pool
	Norm    = dnn.Norm
	Softmax = dnn.Softmax
	Argmax  = dnn.Argmax
	Dropout = dnn.Dropout
)

// NewModel builds a custom inference workload to schedule alongside (or
// instead of) the Table III zoo. The accuracy map (percent, 0..100, keyed by
// precision) must include FP32.
func NewModel(name string, task Task, layers []Layer, inputBytes, outputBytes float64, accuracy map[Precision]float64) (*DNNModel, error) {
	return dnn.NewModel(name, task, layers, inputBytes, outputBytes, accuracy)
}

// Model looks up a zoo network by its Table III name.
func Model(name string) (*DNNModel, error) { return dnn.ByName(name) }

// RunExperiment regenerates one of the paper's tables or figures by ID
// (e.g. "fig9", "tableIII"); Experiments lists the valid IDs.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	return exp.Run(id, opts)
}

// RunExperiments runs several experiments concurrently on the shared
// worker pool (opts.Parallel workers; 0 means GOMAXPROCS) and returns the
// outcomes in the order the IDs were given. Results are deterministic:
// every Parallel setting produces identical tables.
func RunExperiments(ids []string, opts ExperimentOptions) []ExperimentRun {
	return exp.RunAll(ids, opts)
}

// Experiments returns the registered experiment IDs.
func Experiments() []string { return exp.IDs() }

// QuickOptions returns reduced-fidelity experiment options for smoke runs.
func QuickOptions(seed int64) ExperimentOptions { return exp.Quick(seed) }

// Battery is a coulomb-counting energy reservoir used to translate
// per-inference joules into battery life (see examples/daylife).
type Battery = battery.Battery

// NewBattery creates a battery from its datasheet rating (capacity in mAh,
// nominal voltage in volts).
func NewBattery(capacityMAh, nominalV float64) (*Battery, error) {
	return battery.New(capacityMAh, nominalV)
}
