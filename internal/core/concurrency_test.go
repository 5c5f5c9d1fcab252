package core

import (
	"sync"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/sim"
	"autoscale/internal/soc"
)

// TestEngineConcurrentCallers is the -race regression test for the engine's
// concurrency contract: RunInferenceCtx, Predict, snapshots, transfer and a
// Q-table restore all racing one engine must stay consistent — the serving
// gateway relies on exactly this.
func TestEngineConcurrentCallers(t *testing.T) {
	e, err := NewEngine(sim.NewWorld(soc.Mi8Pro(), 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	donor, err := NewEngine(sim.NewWorld(soc.GalaxyS10e(), 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	models := []*dnn.Model{dnn.MustByName("MobileNet v1"), dnn.MustByName("ResNet 50")}
	c := sim.Conditions{RSSIWLAN: -55, RSSIP2P: -55}
	// Pre-train enough that the snapshot/restore goroutine has a real table.
	for i := 0; i < 50; i++ {
		if _, err := donor.RunInferenceCtx(nil, models[0], c); err != nil {
			t.Fatal(err)
		}
	}

	const workers, each = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := models[g%len(models)]
			for i := 0; i < each; i++ {
				switch (g + i) % 5 {
				case 0:
					if _, err := e.Predict(m, c); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := e.SnapshotQTable(); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if err := e.TransferFrom(donor); err != nil {
						t.Error(err)
						return
					}
				case 3:
					_ = e.Agent().MemoryBytes()
				default:
					if _, err := e.RunInferenceCtx(nil, m, c); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	// One goroutine keeps swapping the agent out from under everyone — the
	// worst case the locking has to survive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			data, err := e.SnapshotQTable()
			if err != nil {
				t.Error(err)
				return
			}
			if err := e.RestoreQTable(data); err != nil {
				t.Error(err)
				return
			}
			if err := e.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The engine must still function and its table must still serialize.
	if _, err := e.RunInferenceCtx(nil, models[0], c); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SnapshotQTable(); err != nil {
		t.Fatal(err)
	}
}
