package metrics_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"autoscale/internal/exec"
	"autoscale/internal/obs"
	"autoscale/internal/serve"
	"autoscale/internal/serve/metrics"
	"autoscale/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the registry fold goldens in testdata/")

// goldenFold drives an unrouted registry and two lane registries through a
// seeded sequence of every mutator, in the shapes the gateway calls them —
// admission with and without a virtual wait, shed, expired and failed
// outcomes, outages, drills, served samples on all three targets with and
// without a tenant — and folds them the way
// Gateway.Snapshot does: unrouted first, then each lane.
func goldenFold() metrics.Snapshot {
	rng := exec.NewRand(48)
	targets := []sim.Location{sim.Local, sim.Connected, sim.Cloud}
	tenants := []string{"", "gold", "silver", "bronze"}
	unrouted := metrics.New("")
	lanes := []*metrics.Registry{metrics.New("Mi8Pro"), metrics.New("GalaxyS10e")}
	for i := 0; i < 600; i++ {
		if rng.Intn(12) == 0 {
			unrouted.IncSubmitted()
			if rng.Intn(2) == 0 {
				unrouted.IncExpired()
			} else {
				unrouted.IncFailed()
			}
			continue
		}
		lane := rng.Intn(len(lanes))
		r := lanes[lane]
		r.IncSubmitted()
		queued := rng.Intn(2) == 0
		if queued {
			r.QueueEnter()
			if rng.Intn(8) == 0 {
				r.QueueExit()
				r.IncShed()
				continue
			}
			r.QueueExit()
		}
		r.ObserveAdmission(rng.ExpFloat64()*0.002, rng.ExpFloat64()*0.05, rng.Intn(2) == 0)
		if rng.Intn(30) == 0 {
			r.IncWorkerCrash()
		}
		if rng.Intn(30) == 0 {
			r.IncCorruptDrill()
		}
		switch rng.Intn(12) {
		case 0:
			r.IncExpired()
			continue
		case 1:
			r.ObservePhase(obs.PhaseDecideIdx, rng.ExpFloat64()*0.0005)
			r.IncFailed()
			continue
		}
		decideS := rng.ExpFloat64() * 0.0005
		target := rng.Intn(len(targets))
		if target != 0 && rng.Intn(6) == 0 {
			r.IncOutage()
			r.AddOutageWastedJ(rng.Float64() * 0.1)
			target = 0
		}
		var pt obs.PhaseTotals
		execS := rng.ExpFloat64() * 0.03
		latS := execS
		// One remote serve in six answers later than its execute phase
		// says. These are the draws of the retired hedge branch, kept so
		// that its removal moved no other line of the goldens.
		if target != 0 && rng.Intn(3) == 0 && rng.Intn(2) == 0 {
			execS, latS = 0.025, 0.025+rng.ExpFloat64()*0.01
		}
		pt.Add(obs.PhaseExecuteIdx, execS)
		r.ObserveServed(metrics.ServedSample{
			QoSViolated: latS > 0.05,
			LatencyS:    latS,
			EnergyJ:     rng.ExpFloat64() * 0.2,
			DecideS:     decideS,
			Tenant:      tenants[rng.Intn(len(tenants))],
			TenantRespS: latS + rng.ExpFloat64()*0.01,
			Target:      targets[target],
			Phases:      pt,
		})
	}
	var s metrics.Snapshot
	unrouted.AddTo(&s)
	for _, r := range lanes {
		r.AddTo(&s)
	}
	return s
}

// TestRegistryFoldGolden pins every exported view of a folded registry
// snapshot — its JSON document (the admin /snapshot.json body) and its
// Prometheus exposition — byte for byte against goldens in testdata/, so a
// change to how the registry stores or folds its state cannot move what an
// operator reads. `go test ./internal/serve/metrics -run
// TestRegistryFoldGolden -update` rewrites them; do that only when a view is
// meant to change.
func TestRegistryFoldGolden(t *testing.T) {
	s := goldenFold()
	if s.Served == 0 || s.Shed == 0 || s.Expired == 0 || s.Failed == 0 ||
		s.Outages == 0 || len(s.ByTarget) != 3 || len(s.ByDevice) != 2 ||
		len(s.ByTenant) != 3 || len(s.Phases) != obs.NumPhases || s.VWait.Count == 0 ||
		s.VWait.Count == s.Wait.Count {
		t.Fatalf("the seeded sequence misses a view it is meant to cover: %+v", s)
	}
	js, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var p obs.Prom
	serve.AppendProm(&p, s, nil)
	for name, got := range map[string][]byte{
		"registry_fold.json": append(js, '\n'),
		"registry_fold.prom": p.Bytes(),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden (%d bytes, want %d)", name, len(got), len(want))
		}
	}
}
