// Fleet serving: provision warm-started engines for two devices, put the
// serving gateway in front of them, and drive it with a Poisson stream of
// user interactions (the session layer's arrival model) under a per-request
// deadline — then read the gateway's metrics snapshot: throughput, shed and
// expired counts, latency/energy distributions and the decision breakdown.
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"autoscale"
)

func main() {
	cfg := autoscale.DefaultEngineConfig()

	fmt.Println("training the donor on the Mi8Pro (reference device)...")
	fleet, err := autoscale.NewFleet(autoscale.Mi8Pro, cfg, 40, 7)
	if err != nil {
		log.Fatal(err)
	}

	// One warm-started engine per fleet device, behind one gateway with
	// small queues that shed their oldest request when full.
	gw, err := fleet.ProvisionGateway(
		[]string{autoscale.GalaxyS10e, autoscale.MotoXForce},
		cfg,
		autoscale.GatewayConfig{QueueDepth: 8, Shed: autoscale.ShedOldest},
		11,
	)
	if err != nil {
		log.Fatal(err)
	}

	model, err := autoscale.Model("MobileNet v3")
	if err != nil {
		log.Fatal(err)
	}
	env, err := autoscale.NewEnvironment(autoscale.EnvD2, 11)
	if err != nil {
		log.Fatal(err)
	}

	// A Poisson arrival stream at 20 req/s, as user interactions would
	// produce — compressed so the example finishes quickly: exponential gaps,
	// divided by 1000, pace real submissions.
	rng := autoscale.NewExecContext(11).Stream("example.arrival")
	const requests = 600
	fmt.Printf("submitting %d Poisson-arriving requests...\n", requests)
	var chans []<-chan autoscale.Response
	for i := 0; i < requests; i++ {
		time.Sleep(time.Duration(rng.ExpFloat64() / 20 / 1000 * float64(time.Second)))
		ch, err := gw.Submit(autoscale.Request{
			Model:      model,
			Conditions: env.Sample(),
			Deadline:   time.Now().Add(200 * time.Millisecond),
		})
		if err != nil {
			log.Fatal(err)
		}
		chans = append(chans, ch)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}

	byStatus := map[autoscale.RequestStatus]int{}
	for _, ch := range chans {
		r := <-ch
		byStatus[r.Status]++
	}
	fmt.Printf("\noutcomes: %d served, %d shed, %d expired, %d failed\n",
		byStatus[autoscale.StatusServed], byStatus[autoscale.StatusShed],
		byStatus[autoscale.StatusExpired], byStatus[autoscale.StatusFailed])

	s := gw.Snapshot()
	fmt.Printf("latency: mean %.1f ms   energy: mean %.1f mJ (%.1f J total)\n",
		s.Latency.Mean()*1e3, s.Energy.Mean()*1e3, s.Energy.Sum)
	fmt.Printf("outages %d, QoS misses %d, queue high-water %d\n",
		s.Outages, s.QoSViolations, s.QueueMaxDepth)

	fmt.Println("decision breakdown:")
	for _, loc := range slices.Sorted(maps.Keys(s.ByTarget)) {
		fmt.Printf("  %-10s %5.1f%%\n", loc, 100*float64(s.ByTarget[loc])/float64(s.Served))
	}
	for _, dev := range gw.Devices() {
		fmt.Printf("  %-12s served %d\n", dev, s.ByDevice[dev])
	}
}
