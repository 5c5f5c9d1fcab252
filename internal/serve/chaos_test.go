package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"autoscale/internal/dnn"
	"autoscale/internal/policy"
)

// TestShutdownFlushSurvivesCheckpointIOFaults pins the durability story for
// the final checkpoint flush: when the store's disk fails mid-shutdown
// (write failure or disk full), Shutdown surfaces the injected error but the
// prior-generation tables survive untouched in the raw store — a replacement
// gateway warm-starts from them, and once the fault clears the generation
// sequence resumes without tripping the stale-generation guard.
func TestShutdownFlushSurvivesCheckpointIOFaults(t *testing.T) {
	cases := []struct {
		name string
		mode policy.IOVerdict
	}{
		{"write_fail", policy.IOFailWrite},
		{"disk_full", policy.IOFailAll},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := policy.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			verdict := policy.IOHealthy
			fsink := &policy.FaultSink{
				Inner:   store,
				Now:     func() float64 { return 0 },
				Verdict: func(string, float64) policy.IOVerdict { return verdict },
			}
			sync := policy.SyncConfig{MaxAttempts: 2, Sleep: func(time.Duration) {}}
			g := testGateway(t, Config{Checkpoints: fsink, PolicySync: sync})

			m := dnn.MustByName("MobileNet v3")
			for i := 0; i < 40; i++ {
				if _, err := g.Do(Request{Model: m, Conditions: conds()}); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			// One clean federation pass lands a generation for every device
			// while the disk is still healthy.
			if rep := syncOnce(t, fsink, g, sync); rep.Err() != nil {
				t.Fatalf("healthy sync: %v", rep.Err())
			}
			gens := map[string]uint64{}
			for _, dev := range g.Devices() {
				ck, err := store.Latest(dev)
				if err != nil {
					t.Fatalf("no checkpoint for %s after sync: %v", dev, err)
				}
				gens[dev] = ck.Generation
			}

			// The disk fails before the final flush: Shutdown must surface
			// the injected error, not swallow it.
			verdict = tc.mode
			if err := g.Shutdown(context.Background()); !errors.Is(err, policy.ErrInjectedIO) {
				t.Fatalf("shutdown under %s: %v, want ErrInjectedIO", tc.name, err)
			}
			// The prior generations survive untouched in the raw store.
			for dev, gen := range gens {
				ck, err := store.Latest(dev)
				if err != nil || ck.Generation != gen {
					t.Fatalf("%s after failed flush: gen=%v err=%v, want gen %d intact",
						dev, ck, err, gen)
				}
			}

			// The fault clears: a replacement gateway warm-starts from the
			// surviving tables...
			verdict = policy.IOHealthy
			g2 := testGateway(t, Config{Checkpoints: fsink, PolicySync: sync})
			warm := g2.WarmStarts()
			for dev, gen := range gens {
				if warm[dev] != gen {
					t.Errorf("replacement warm start for %s: gen %d, want %d", dev, warm[dev], gen)
				}
			}
			// ...and the generation guard is intact: the next save resumes
			// the sequence with no gap and no stale-generation trip.
			if rep := syncOnce(t, fsink, g2, sync); rep.Err() != nil {
				t.Fatalf("post-recovery sync: %v", rep.Err())
			}
			for dev, gen := range gens {
				ck, err := store.Latest(dev)
				if err != nil || ck.Generation != gen+1 {
					t.Errorf("%s after recovery: gen=%v err=%v, want %d", dev, ck, err, gen+1)
				}
			}
			if err := g2.Shutdown(context.Background()); err != nil {
				t.Fatalf("clean shutdown: %v", err)
			}
		})
	}
}
