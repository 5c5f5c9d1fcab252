package router

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/dnn"
	"autoscale/internal/exec"
	"autoscale/internal/fault"
	"autoscale/internal/serve"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// The serving tiers must be transparent: with no faults or deadlines and
// one sequential client, each device's engine behind a
// gateway, or behind a router over 1–3 shards, takes exactly the steps a
// bare Algorithm 1 loop (AdvanceTo the arrival, then RunInferenceCtx with a
// nil ctx) takes on a twin engine fed that device's requests in order. The
// same holds under a fault storm installed on the tier's worlds and the
// twins' worlds alike: the sim's windowed faults act inside the engine step.

const transparentLanes = 3

// transparentEngine builds lane i's engine; twins share config and seed,
// and, when sc is non-nil, a fault injector compiled from sc on that seed.
func transparentEngine(t *testing.T, i int, sc *fault.Schedule) *core.Engine {
	t.Helper()
	seed := 40 + int64(i)
	e := testEngine(t, soc.Phones()[i%len(soc.Phones())], seed, core.DefaultConfig())
	if sc != nil {
		e.World.Faults = fault.New(sc, exec.NewRoot(seed).Child("faults"))
	}
	return e
}

func laneName(i int) string { return fmt.Sprintf("lane-%d", i) }

// transparentRequests is the zoo over S1–S5/D1–D4, pinned round-robin to
// the lanes and stamped with increasing virtual arrivals, so a lane is
// sometimes still busy (the request waits) and sometimes idle (the gateway
// fast-forwards its clock).
func transparentRequests(t *testing.T) []serve.Request {
	t.Helper()
	var reqs []serve.Request
	for ei, envID := range sim.AllEnvIDs() {
		env, err := sim.NewEnvironment(envID, 7+int64(ei))
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 10; run++ {
			for _, m := range dnn.Zoo() {
				i := len(reqs)
				reqs = append(reqs, serve.Request{
					Model:      m,
					Conditions: env.Sample(),
					Device:     laneName(i % transparentLanes),
					ArrivalS:   0.2 * float64(i+1),
				})
			}
		}
	}
	return reqs
}

// transparentTier is one serving stack under test: the engines behind it,
// its Do, and its shutdown.
type transparentTier struct {
	engines []*core.Engine
	do      func(serve.Request) (serve.Response, error)
	stop    func(context.Context) error
}

// gatewayTier puts lanes on shards gateways, lane i on shard i%shards; with
// routed false a single standalone gateway serves every lane.
func gatewayTier(t *testing.T, shards int, routed bool, sc *fault.Schedule) transparentTier {
	t.Helper()
	tier := transparentTier{engines: make([]*core.Engine, transparentLanes)}
	backends := make([][]serve.Backend, shards)
	for i := range tier.engines {
		tier.engines[i] = transparentEngine(t, i, sc)
		backends[i%shards] = append(backends[i%shards], serve.Backend{Device: laneName(i), Engine: tier.engines[i]})
	}
	var sgs []ShardGateway
	for s, bs := range backends {
		gw, err := serve.New(bs, serve.Config{Name: fmt.Sprintf("shard-%d", s)})
		if err != nil {
			t.Fatal(err)
		}
		sgs = append(sgs, ShardGateway{Name: fmt.Sprintf("shard-%d", s), Gateway: gw})
	}
	if !routed {
		tier.do, tier.stop = sgs[0].Gateway.Do, sgs[0].Gateway.Shutdown
		return tier
	}
	rt, err := New(sgs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tier.do, tier.stop = rt.Do, rt.Shutdown
	return tier
}

// measBits renders every float of a measurement as its bit pattern.
func measBits(m sim.Measurement) string {
	b := func(x float64) uint64 { return math.Float64bits(x) }
	return fmt.Sprintf("%v %x %x %x %x %x %x %x %x %x", m.Target, b(m.LatencyS), b(m.EnergyJ),
		b(m.Breakdown.Compute), b(m.Breakdown.Radio), b(m.Breakdown.Idle), b(m.Accuracy),
		b(m.TTXSeconds), b(m.TRXSeconds), b(m.WastedJ))
}

func TestTiersAreTransparent(t *testing.T) { checkTransparent(t, nil) }

// TestFaultedTiersAreTransparent runs the same comparison under the example
// storm (outages, an RSSI ramp, a queue spike and a thermal throttle). Gray
// windows and one-shot drills act in the gateway by design, so the schedule
// carries none and the gateway gets no injector of its own.
func TestFaultedTiersAreTransparent(t *testing.T) {
	sc, err := fault.Load("../../examples/faults/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sc.Faults {
		if sp.Kind == fault.KindGrayDegrade || sp.Kind == fault.KindWorkerCrash || sp.Kind == fault.KindCheckpointCorrupt {
			t.Fatalf("the storm carries a gateway-side %s fault", sp.Kind)
		}
	}
	checkTransparent(t, sc)
}

// checkTransparent serves transparentRequests through every tier, under sc
// when it is non-nil, and compares each decision with the bare loop's.
func checkTransparent(t *testing.T, sc *fault.Schedule) {
	reqs := transparentRequests(t)
	tiers := []struct {
		name   string
		shards int
		routed bool
	}{{"gateway", 1, false}, {"router/1", 1, true}, {"router/2", 2, true}, {"router/3", 3, true}}
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			tier := gatewayTier(t, tc.shards, tc.routed, sc)
			twins := make([]*core.Engine, transparentLanes)
			for i := range twins {
				twins[i] = transparentEngine(t, i, sc)
			}
			diffs, waited, stormed := 0, 0, 0
			for k, req := range reqs {
				resp, err := tier.do(req)
				if err != nil {
					t.Fatalf("request %d: %v", k, err)
				}
				if resp.Device != req.Device {
					t.Fatalf("request %d pinned to %s served by %s", k, req.Device, resp.Device)
				}
				if resp.VWaitS > 0 {
					waited++
				}
				twin := twins[k%transparentLanes]
				twin.AdvanceTo(req.ArrivalS)
				if f, now := twin.World.Faults, twin.Now(); f.Down(fault.SiteCloud, now) ||
					f.RSSIDeltaDBm(fault.LinkWLAN, now) != 0 || f.ThrottleFactor(now) > 1 {
					stormed++
				}
				want, err := twin.RunInferenceCtx(nil, req.Model, req.Conditions)
				if err != nil {
					t.Fatal(err)
				}
				got := resp.Decision
				if got.ActionIndex != want.ActionIndex || got.StateIdx != want.StateIdx ||
					math.Float64bits(got.Reward) != math.Float64bits(want.Reward) ||
					measBits(got.Measurement) != measBits(want.Measurement) {
					if diffs++; diffs <= 3 {
						t.Errorf("request %d (%s on %s): served action %d state %d reward %v %s; bare loop action %d state %d reward %v %s",
							k, req.Model.Name, req.Device, got.ActionIndex, got.StateIdx, got.Reward, measBits(got.Measurement),
							want.ActionIndex, want.StateIdx, want.Reward, measBits(want.Measurement))
					}
				}
			}
			if diffs > 0 {
				t.Fatalf("%d of %d decisions differ from the bare loop", diffs, len(reqs))
			}
			if waited == 0 || waited == len(reqs) {
				t.Errorf("%d of %d requests waited: the arrivals exercise only one AdvanceTo branch", waited, len(reqs))
			}
			if sc != nil && stormed == 0 {
				t.Errorf("no request ran inside a storm window: the storm was compared vacuously")
			}
			if err := tier.stop(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, e := range tier.engines {
				if a, b := math.Float64bits(e.Now()), math.Float64bits(twins[i].Now()); a != b {
					t.Errorf("%s: clock %v, bare loop %v", laneName(i), e.Now(), twins[i].Now())
				}
				got, err := e.Agent().Table().Encode()
				if err != nil {
					t.Fatal(err)
				}
				want, err := twins[i].Agent().Table().Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: Q-table differs from the bare loop's", laneName(i))
				}
			}
		})
	}
}
