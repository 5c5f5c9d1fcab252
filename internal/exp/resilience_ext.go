package exp

import (
	"context"
	"fmt"
	"slices"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/sched"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// resilienceArms are the compared configurations, keyed by whether the
// gateway hedges; "none", the first, is the reference the other is paired
// against.
var resilienceArms = []struct {
	label string
	hedge bool
}{
	{"none", false},
	{"hedge", true},
}

// ExtensionResilience measures the serving gateway's hedged offloads under
// fault storms: one client serves MobileNet v3 on a cold engine
// behind a one-lane gateway, under each arm, on each phone, under the
// scripted storm (opts.Faults, default DefaultStorm) and fault.Randomize at
// intensities 0.5 and 0.9. With one client a run is a pure function of its
// seed, so the arms are compared seed by seed. Each cell reports the
// QoS-miss ratio, mJ per inference and PPW against the fault-aware Opt on
// the same storm, as median [min–max] over the seeds, and how many seeds
// the arm beats none on each of the first two.
func ExtensionResilience(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	storm := opts.Faults
	if storm == nil {
		storm = DefaultStorm()
	}
	if err := storm.Validate(); err != nil {
		return nil, err
	}
	seeds, reqs := max(1, opts.Runs/5), 30*opts.Runs
	storms := []struct {
		label    string
		schedule func(seed int64) *fault.Schedule
	}{
		{storm.Name, func(int64) *fault.Schedule { return storm }},
		{"random 0.5", func(s int64) *fault.Schedule { return fault.Randomize(s, 0.5, fault.RandomOpts{}) }},
		{"random 0.9", func(s int64) *fault.Schedule { return fault.Randomize(s, 0.9, fault.RandomOpts{}) }},
	}
	phones := soc.Phones()
	t := &Table{
		ID: "ext-resilience",
		Title: fmt.Sprintf("Extension: gateway resilience under fault storms (1 client, MobileNet v3, %d requests, %d paired seeds)",
			reqs, seeds),
		Columns: []string{"Storm", "Device", "Resilience", "QoS miss ratio", "mJ/inf", "PPW (vs Opt)",
			"Beats none (mJ, misses)"},
	}

	// One cell per (storm, phone, seed) runs every arm and the oracle.
	type cellOut struct{ miss, mj, ppw []float64 }
	out, err := runCells(opts, len(storms)*len(phones)*seeds, func(i int) (cellOut, error) {
		si, pi, seed := i/(len(phones)*seeds), i/seeds%len(phones), opts.Seed+int64(i%seeds)
		// Every world gets a device of its own.
		sc := storms[si].schedule(seed)
		optMJ, err := resilienceOpt(soc.Phones()[pi], sc, seed, reqs)
		if err != nil {
			return cellOut{}, err
		}
		var c cellOut
		for _, arm := range resilienceArms {
			miss, mj, err := resilienceRun(soc.Phones()[pi], sc, seed, arm.hedge, reqs)
			if err != nil {
				return cellOut{}, err
			}
			c.miss, c.mj, c.ppw = append(c.miss, miss), append(c.mj, mj), append(c.ppw, optMJ/mj)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for si, st := range storms {
		for pi, dev := range phones {
			runs := out[(si*len(phones)+pi)*seeds : (si*len(phones)+pi+1)*seeds]
			for a, arm := range resilienceArms {
				col := func(pick func(cellOut) []float64) []float64 {
					v := make([]float64, seeds)
					for k, r := range runs {
						v[k] = pick(r)[a]
					}
					return v
				}
				miss := func(c cellOut) []float64 { return c.miss }
				mj := func(c cellOut) []float64 { return c.mj }
				wins := func(pick func(cellOut) []float64) int {
					n := 0
					for _, r := range runs {
						if pick(r)[a] < pick(r)[0] {
							n++
						}
					}
					return n
				}
				beats := "-"
				if a != 0 {
					beats = fmt.Sprintf("%d/%d, %d/%d", wins(mj), seeds, wins(miss), seeds)
				}
				t.AddRow(st.label, dev.Name, arm.label, spread(col(miss)), spread(col(mj)),
					spread(col(func(c cellOut) []float64 { return c.ppw })), beats)
			}
		}
	}
	t.Notes = append(t.Notes,
		"values are median [min-max] over the seeds; a seed's arms share its engine, world, fault "+
			"injector and storm, and PPW is the fault-aware Opt's mJ/inf over the arm's on the same storm")
	return t, nil
}

// resilienceConditions is the client's fixed radio environment (strong WLAN
// and P2P links, no co-runners); the storms supply every variation.
var resilienceConditions = sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}

// resilienceRun serves reqs MobileNet v3 requests through a one-lane gateway
// on a cold engine under the storm, and returns the QoS-miss ratio (requests
// not served count as misses) and the mean mJ per request.
func resilienceRun(dev *soc.Device, sc *fault.Schedule, seed int64, hedge bool, reqs int) (miss, mj float64, err error) {
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.RL.Seed = seed, seed
	eng, err := core.NewEngine(sim.NewWorld(dev, seed), cfg)
	if err != nil {
		return 0, 0, err
	}
	gw, err := serve.New([]serve.Backend{{Device: dev.Name, Engine: eng}}, serve.Config{
		Name: "ext-resilience", Faults: fault.New(sc, exec.NewRoot(seed).Child("faults")), Hedge: hedge,
	})
	if err != nil {
		return 0, 0, err
	}
	defer gw.Shutdown(context.Background())
	m := dnn.MustByName("MobileNet v3")
	var misses int
	var joules float64
	for i := 0; i < reqs; i++ {
		r, err := gw.Do(serve.Request{Model: m, Conditions: resilienceConditions})
		if err != nil || r.Status != serve.StatusServed {
			misses++
			continue
		}
		joules += r.Decision.Measurement.EnergyJ
		if r.Decision.QoSViolated {
			misses++
		}
	}
	return float64(misses) / float64(reqs), 1e3 * joules / float64(reqs), nil
}

// resilienceOpt runs the fault-aware oracle over the same request stream on
// a twin world and storm, on a virtual clock of its own, and returns its
// mean mJ per request.
func resilienceOpt(dev *soc.Device, sc *fault.Schedule, seed int64, reqs int) (float64, error) {
	w := sim.NewWorld(dev, seed)
	w.Faults = fault.New(sc, exec.NewRoot(seed).Child("faults"))
	opt := sched.Opt{World: w, AvoidDown: true}
	root := exec.NewRoot(seed).Child("ext-resilience.opt")
	m := dnn.MustByName("MobileNet v3")
	var joules float64
	for i := 0; i < reqs; i++ {
		meas, err := opt.RunCtx(root.Child("req", uint64(i)), m, resilienceConditions)
		if err != nil {
			return 0, err
		}
		joules += meas.EnergyJ
	}
	return 1e3 * joules / float64(reqs), nil
}

// spread renders values as median [min-max].
func spread(v []float64) string {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	med := (s[(n-1)/2] + s[n/2]) / 2
	return fmt.Sprintf("%.4g [%.4g-%.4g]", med, s[0], s[n-1])
}
