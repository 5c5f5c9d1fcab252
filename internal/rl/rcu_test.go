package rl

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRCUTornReadHunt hammers the lock-free read paths (QIdx, BestActionIdx,
// HasStateIdx, NumStates, VisitsIdx, ForEachMaterialized, Rows, Table)
// while a single writer materializes rows and rewrites cells between two
// bit-distinct values. Run under -race this is the data-race proof for the
// table design (a row's values stored before its pointer, atomic cells); the
// bit-pattern assertion additionally catches torn float64 reads directly —
// both chosen values have non-zero, distinct high and low 32-bit halves, so
// any half-and-half mix is a value outside the allowed set. Every round
// swaps in a fresh agent whose rows the writer materializes in a scrambled
// order while the readers' BestActionIdx calls materialize the ones they
// reach first through the lock-free-miss -> writer-lock path, so rows are
// published from several goroutines at once.
func TestRCUTornReadHunt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitLo, cfg.InitHi = 0, 0 // rows materialize to exactly zero
	cfg.LearningRate = 1          // Update writes the reward verbatim...
	cfg.Discount = 0              // ...with no bootstrap term
	const actions = 4
	const states = 300
	g := newTestGrid(states)
	var cur atomic.Pointer[Agent]
	fresh := func() *Agent {
		ag, err := NewAgent(cfg, actions, g)
		if err != nil {
			t.Fatal(err)
		}
		return ag
	}
	cur.Store(fresh())
	valA := math.Float64frombits(0x4010123456789ABC)
	valB := math.Float64frombits(0xC01FEDCBA9876543)
	allowed := map[uint64]bool{
		0:                      true, // unmaterialized or freshly seeded cell
		math.Float64bits(valA): true,
		math.Float64bits(valB): true,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ag := cur.Load()
				s := int32((i*7 + r) % states)
				q, _ := ag.QIdx(s, (i+r)%actions) // 0 while the row is unmaterialized
				if !allowed[math.Float64bits(q)] {
					t.Errorf("torn read: Q=%v (bits %#x) is neither 0, %v nor %v",
						q, math.Float64bits(q), valA, valB)
					return
				}
				if a, err := ag.BestActionIdx(s, nil); err != nil || a < 0 || a >= actions {
					t.Errorf("BestActionIdx(%d) = %d, %v", s, a, err)
					return
				}
				ag.HasStateIdx(s)
				ag.NumStates()
				ag.VisitsIdx(s)
				if i%16 == 0 && !walksAgree(t, ag) {
					return
				}
				if i%256 == 0 {
					for key, row := range ag.Table().Q {
						for _, v := range row {
							if len(row) != actions || !allowed[math.Float64bits(v)] {
								t.Errorf("Table row %s = %v", key, row)
								return
							}
						}
					}
				}
			}
		}(r)
	}

	// 40 rounds x 5,000 updates: each round materializes every state in a
	// stride-97 order (97 is prime to 300), then rewrites cells.
	for round := 0; round < 40; round++ {
		ag := fresh()
		cur.Store(ag)
		for i := 0; i < 5000; i++ {
			val := valA
			if i%2 == 1 {
				val = valB
			}
			si, ni := int32(i*97%states), int32((i+1)*97%states)
			if err := ag.UpdateIdx(si, i%actions, val, ni, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// walksAgree checks the two row walks while rows are being published:
// ForEachMaterialized yields strictly ascending indices, Rows lists each
// state at most once, and every state either yields has a row.
func walksAgree(t *testing.T, ag *Agent) bool {
	t.Helper()
	prev := int32(-1)
	ok := true
	ag.ForEachMaterialized(func(i int32) {
		if i <= prev || !ag.HasStateIdx(i) {
			ok = false
		}
		prev = i
	})
	seen := make(map[int32]bool)
	for _, i := range ag.Rows() {
		if seen[i] || !ag.HasStateIdx(i) {
			ok = false
		}
		seen[i] = true
	}
	if !ok {
		t.Error("a row walk yielded a state out of order, twice, or without a row")
	}
	return ok
}
