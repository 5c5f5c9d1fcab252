package rl

import (
	"math"
	"sync"
	"testing"
)

// TestRCUTornReadHunt hammers the lock-free read paths (QIdx, BestActionIdx,
// HasStateIdx, NumStates, VisitsIdx) while a single writer materializes rows
// and rewrites cells between two bit-distinct values. Run under -race this is
// the data-race proof for the table design (values stored before the row's
// ready flag, atomic cells); the bit-pattern assertion additionally
// catches torn float64 reads directly — both chosen values have non-zero,
// distinct high and low 32-bit halves, so any half-and-half mix is a value
// outside the allowed set.
func TestRCUTornReadHunt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitLo, cfg.InitHi = 0, 0 // rows materialize to exactly zero
	cfg.LearningRate = 1          // Update writes the reward verbatim...
	cfg.Discount = 0              // ...with no bootstrap term
	const actions = 4
	const states = 64
	ag, err := NewAgent(cfg, actions, newTestGrid(states))
	if err != nil {
		t.Fatal(err)
	}
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
				s := int32((i*7 + r) % states)
				q, _ := ag.QIdx(s, (i+r)%actions) // 0 while the row is unmaterialized
				if !allowed[math.Float64bits(q)] {
					t.Errorf("torn read: Q=%v (bits %#x) is neither 0, %v nor %v",
						q, math.Float64bits(q), valA, valB)
					return
				}
				if a, err := ag.BestActionIdx(s, nil); err == nil && (a < 0 || a >= actions) {
					t.Errorf("BestActionIdx(%d) = %d out of range", s, a)
					return
				}
				ag.HasStateIdx(s)
				ag.NumStates()
				ag.VisitsIdx(s)
			}
		}(r)
	}

	for i := 0; i < 200000; i++ { // ~10 ms of writes: long enough for every reader to overlap
		val := valA
		if i%2 == 1 {
			val = valB
		}
		if err := ag.UpdateIdx(int32(i%states), i%actions, val, int32((i+1)%states), nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
