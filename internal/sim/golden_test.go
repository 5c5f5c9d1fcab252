package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"autoscale/internal/dnn"
	"autoscale/internal/interfere"
	"autoscale/internal/radio"
	"autoscale/internal/soc"
)

var update = flag.Bool("update", false, "rewrite testdata/expected_digest.txt from this tree")

// TestExpectedGolden pins the simulator's arithmetic: for every world and
// zoo model it digests the float64 bits of Expected's latency, energy and
// breakdown over every target and a fixed set of conditions, and compares
// the digests with testdata/expected_digest.txt, recorded from the per-layer
// walk before compiled rooflines replaced it. An "optimisation" that
// reassociates a product or reorders a sum moves the last bit of some
// latency and fails here, naming the world and model.
func TestExpectedGolden(t *testing.T) {
	const file = "testdata/expected_digest.txt"
	npu := NewWorld(soc.Mi8ProNPU(), 1)
	npu.Server = soc.CloudServerTPU()
	worlds := []*World{
		NewWorld(soc.Mi8Pro(), 1), NewWorld(soc.GalaxyS10e(), 1), NewWorld(soc.MotoXForce(), 1), npu,
	}
	conds := []Conditions{
		{RSSIWLAN: radio.RegularRSSI, RSSIP2P: radio.RegularRSSI},
		{RSSIWLAN: radio.WeakRSSI, RSSIP2P: radio.RegularRSSI},
		{Load: interfere.Load{CPUUtil: 0.85, MemUtil: 0.10}, RSSIWLAN: radio.RegularRSSI, RSSIP2P: radio.WeakRSSI},
		{Load: interfere.Load{CPUUtil: 0.20, MemUtil: 0.85}, RSSIWLAN: radio.RegularRSSI, RSSIP2P: radio.RegularRSSI},
		{Load: interfere.Load{CPUUtil: 0.6, MemUtil: 0.5}, RSSIWLAN: -71.5, RSSIP2P: -64.25},
		{Load: interfere.Load{CPUUtil: 0.123456789, MemUtil: 0.987654321}, RSSIWLAN: -83, RSSIP2P: -79.999},
		{Load: interfere.Load{CPUUtil: 1.7, MemUtil: 2.5}, RSSIWLAN: radio.WeakRSSI, RSSIP2P: radio.WeakRSSI},
	}

	var got strings.Builder
	for _, w := range worlds {
		for _, m := range dnn.Zoo() {
			h := sha256.New()
			var buf [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			n := 0
			for _, tgt := range w.Targets(m) {
				for _, c := range conds {
					meas, err := w.Expected(m, tgt, c)
					if err != nil {
						t.Fatalf("%s %s %v: %v", w.Device.Name, m.Name, tgt, err)
					}
					for _, v := range []float64{meas.LatencyS, meas.EnergyJ, meas.Breakdown.Compute,
						meas.Breakdown.Radio, meas.Breakdown.Idle, meas.TTXSeconds, meas.TRXSeconds, meas.Accuracy} {
						put(v)
					}
					n++
				}
			}
			fmt.Fprintf(&got, "%s\t%s\t%d\t%x\n", w.Device.Name, m.Name, n, h.Sum(nil)[:12])
		}
	}

	if *update {
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("Expected moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
