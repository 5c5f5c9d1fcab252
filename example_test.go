package autoscale_test

import (
	"fmt"

	"autoscale"
)

// ExampleNewEngine shows the minimal observe-select-execute-learn loop on
// the simulated Mi8Pro under a web-browser co-runner (environment D2).
func ExampleNewEngine() {
	world, err := autoscale.NewWorld(autoscale.Mi8Pro, 1)
	if err != nil {
		panic(err)
	}
	engine, err := autoscale.NewEngine(world, autoscale.DefaultEngineConfig())
	if err != nil {
		panic(err)
	}
	env, err := autoscale.NewEnvironment(autoscale.EnvD2, 1)
	if err != nil {
		panic(err)
	}
	model, err := autoscale.Model("MobileNet v3")
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := engine.RunInferenceCtx(nil, model, env.Sample()); err != nil {
			panic(err)
		}
	}
	fmt.Println(engine.Agent().NumStates() > 0)
	// Output: true
}

// ExampleModel demonstrates the Table III zoo lookup.
func ExampleModel() {
	m, err := autoscale.Model("MobileBERT")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d CONV, %d FC, %d RC layers\n", m.Name, m.NumConv(), m.NumFC(), m.NumRC())
	// Output: MobileBERT: 0 CONV, 1 FC, 24 RC layers
}

// ExampleQoSFor shows the paper's per-scenario latency targets.
func ExampleQoSFor() {
	vision, _ := autoscale.Model("MobileNet v1")
	translation, _ := autoscale.Model("MobileBERT")
	fmt.Printf("non-streaming vision: %.0f ms\n", autoscale.QoSFor(vision, autoscale.NonStreaming)*1000)
	fmt.Printf("streaming vision:     %.1f ms\n", autoscale.QoSFor(vision, autoscale.Streaming)*1000)
	fmt.Printf("translation:          %.0f ms\n", autoscale.QoSFor(translation, autoscale.NonStreaming)*1000)
	// Output:
	// non-streaming vision: 50 ms
	// streaming vision:     33.3 ms
	// translation:          100 ms
}

// ExampleNewFleet provisions a warm-started engine for a second device from
// a donor trained on the first — the paper's learning transfer.
func ExampleNewFleet() {
	cfg := autoscale.DefaultEngineConfig()
	fleet, err := autoscale.NewFleet(autoscale.Mi8Pro, cfg, 2, 1)
	if err != nil {
		panic(err)
	}
	engine, err := fleet.Provision(autoscale.MotoXForce, cfg, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(engine.Agent().NumStates() > 0)
	// Output: true
}

// ExampleNewModel schedules a custom network that is not part of the
// Table III zoo.
func ExampleNewModel() {
	layers := []autoscale.Layer{
		{Name: "conv_0", Type: autoscale.Conv, MACs: 4e8, WeightBytes: 2e6, ActivationBytes: 3e5},
		{Name: "conv_1", Type: autoscale.Conv, MACs: 3e8, WeightBytes: 3e6, ActivationBytes: 2e5},
		{Name: "fc_0", Type: autoscale.FC, MACs: 2e6, WeightBytes: 4e6, ActivationBytes: 4e3},
	}
	model, err := autoscale.NewModel("TinyNet", autoscale.ImageClassification,
		layers, 150528, 4004, map[autoscale.Precision]float64{
			autoscale.FP32: 71.0,
			autoscale.INT8: 67.5,
		})
	if err != nil {
		panic(err)
	}
	world, _ := autoscale.NewWorld(autoscale.Mi8Pro, 1)
	engine, _ := autoscale.NewEngine(world, autoscale.DefaultEngineConfig())
	env, _ := autoscale.NewEnvironment(autoscale.EnvS1, 1)
	for i := 0; i < 100; i++ {
		if _, err := engine.RunInferenceCtx(nil, model, env.Sample()); err != nil {
			panic(err)
		}
	}
	target, _ := engine.Predict(model, autoscale.Conditions{RSSIWLAN: -55, RSSIP2P: -55})
	fmt.Println(target.Location == autoscale.LocationLocal || target.Location == autoscale.LocationConnected || target.Location == autoscale.LocationCloud)
	// Output: true
}
