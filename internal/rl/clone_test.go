package rl

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// drive applies one deterministic mixed workload to ag: explored and greedy
// selections, updates, a row copy and a greedy read that materializes an
// unseen row (consuming init draws), so every piece of state Clone carries
// feeds what follows. It returns the actions chosen.
func drive(t *testing.T, ag *Agent, steps int, salt int32) []int {
	t.Helper()
	n := int32(ag.grid.Size())
	var chosen []int
	mask := []bool{true, false, true, true}
	for k := int32(0); k < int32(steps); k++ {
		si, ni := (k*7+salt)%n, (k*11+salt+3)%n
		a, err := ag.SelectIdx(si, mask, nil)
		if err != nil {
			t.Fatal(err)
		}
		chosen = append(chosen, a)
		if err := ag.UpdateIdx(si, a, float64(k%5)-2, ni, mask); err != nil {
			t.Fatal(err)
		}
		if k%9 == 4 {
			if err := ag.CopyRowIdx((si+5)%n, si); err != nil {
				t.Fatal(err)
			}
		}
		if k%13 == 6 {
			b, err := ag.BestActionIdx((ni+salt)%n, nil)
			if err != nil {
				t.Fatal(err)
			}
			chosen = append(chosen, b)
		}
	}
	return chosen
}

// fingerprint is everything observable about an agent that Clone promises
// to carry: snapshot bytes, row order, health counters and heap.
type fingerprint struct {
	snap                   []byte
	order                  []int32
	eps                    float64
	frozen                 bool
	tdEMA                  float64
	tdN, explores, selects int64
	states, memory         int
}

func fingerprintOf(t *testing.T, ag *Agent) fingerprint {
	t.Helper()
	snap, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint{snap: snap, order: slices.Clone(ag.Rows()), eps: ag.Epsilon(), frozen: ag.Frozen(),
		states: ag.NumStates(), memory: ag.MemoryBytes()}
	f.tdEMA, f.tdN = ag.TDErrorEMA()
	f.explores, f.selects = ag.ExplorationStats()
	return f
}

func sameFingerprint(a, b fingerprint) bool {
	return bytes.Equal(a.snap, b.snap) && slices.Equal(a.order, b.order) &&
		a.eps == b.eps && a.frozen == b.frozen && a.tdEMA == b.tdEMA && a.tdN == b.tdN &&
		a.explores == b.explores && a.selects == b.selects && a.states == b.states && a.memory == b.memory
}

// TestCloneContinuesIdentically: a clone taken mid-run and its source, fed
// the same workload, choose the same actions and end in the same state —
// RNG position, epsilon, visits, rows and their order all carried — while a
// twin that never cloned agrees with both. Frozen agents clone frozen.
func TestCloneContinuesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon = 0.3 // explore often, so the RNG position matters
	src, twin := newTestAgent(t, cfg, 4), newTestAgent(t, cfg, 4)
	drive(t, src, 40, 1)
	drive(t, twin, 40, 1)
	for _, ag := range []*Agent{src, twin} {
		if err := ag.SetEpsilon(0.2); err != nil {
			t.Fatal(err)
		}
	}
	c := src.Clone()
	if !sameFingerprint(fingerprintOf(t, c), fingerprintOf(t, src)) {
		t.Fatal("clone differs from its source at the clone point")
	}
	fromClone := drive(t, c, 60, 2)
	fromSource := drive(t, src, 60, 2)
	fromTwin := drive(t, twin, 60, 2)
	if !slices.Equal(fromClone, fromSource) || !slices.Equal(fromClone, fromTwin) {
		t.Fatalf("actions diverged:\nclone  %v\nsource %v\ntwin   %v", fromClone, fromSource, fromTwin)
	}
	want := fingerprintOf(t, twin)
	if !sameFingerprint(fingerprintOf(t, c), want) || !sameFingerprint(fingerprintOf(t, src), want) {
		t.Fatal("clone or source ended in a different state from the twin")
	}

	src.Freeze()
	if !src.Clone().Frozen() {
		t.Fatal("clone of a frozen agent is not frozen")
	}
}

// TestCloneIsIndependent: writes to a clone never reach its source and
// writes to the source never reach the clone.
func TestCloneIsIndependent(t *testing.T) {
	src := newTestAgent(t, DefaultConfig(), 4)
	drive(t, src, 30, 0)
	before := fingerprintOf(t, src)
	c := src.Clone()
	drive(t, c, 50, 5)
	if err := c.SetEpsilon(0.9); err != nil {
		t.Fatal(err)
	}
	c.Freeze()
	if !sameFingerprint(fingerprintOf(t, src), before) {
		t.Fatal("writing to the clone moved its source")
	}
	c = src.Clone()
	cloned := fingerprintOf(t, c)
	drive(t, src, 50, 7)
	if !sameFingerprint(fingerprintOf(t, c), cloned) {
		t.Fatal("writing to the source moved its clone")
	}
}

// TestCloneUnderConcurrentReaders races lock-free greedy readers and a
// writer against repeated clones; run under -race it proves Clone's reads
// are ordered against the writer and never disturb readers.
func TestCloneUnderConcurrentReaders(t *testing.T) {
	src := newTestAgent(t, DefaultConfig(), 4)
	drive(t, src, 20, 0)
	n := int32(src.grid.Size())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := int32(0); r < 3; r++ {
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			for i := int32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if a, err := src.BestActionIdx((i*5+r)%n, nil); err != nil || a < 0 || a >= 4 {
					t.Errorf("BestActionIdx = %d, %v", a, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(0); i < 2000; i++ {
			if err := src.UpdateIdx(i%n, int(i%4), 1, (i+1)%n, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < 200; k++ {
		c := src.Clone()
		if c.NumStates() > int(n) {
			t.Errorf("clone has %d rows on a %d-state grid", c.NumStates(), n)
			break
		}
	}
	close(stop)
	wg.Wait()
}
