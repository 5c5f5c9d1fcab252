package policy_test

import (
	"fmt"
	"testing"

	"autoscale/internal/core"
	"autoscale/internal/policy"
	"autoscale/internal/rl"
)

// BenchmarkDecodeCheckpoint puts the cost of reading one envelope on record:
// CRC, JSON and table validation for a 66-action table of 100 / 400 / 1,600
// Table I states. Decode builds no agent, so the cost is the JSON's, linear
// in the payload.
func BenchmarkDecodeCheckpoint(b *testing.B) {
	const actions = 66
	grid := core.NewStateSpace()
	for _, states := range []int{100, 400, 1600} {
		tbl := rl.Table{Config: rl.DefaultConfig(), Actions: actions,
			Q: map[rl.State][]float64{}, Visits: map[rl.State]int{}}
		for i := 0; i < states; i++ {
			row := make([]float64, actions)
			for j := range row {
				row[j] = -float64(i*actions+j) / 7
			}
			tbl.Q[grid.KeyOf(int32(i))] = row
			tbl.Visits[grid.KeyOf(int32(i))] = i + 1
		}
		snap, err := tbl.Encode()
		if err != nil {
			b.Fatal(err)
		}
		ck, err := policy.NewCheckpoint("Mi8Pro", "cafebabe00000000", snap)
		if err != nil {
			b.Fatal(err)
		}
		env, err := policy.Encode(ck)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprint(states), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(env)))
			for i := 0; i < b.N; i++ {
				if _, err := policy.Decode(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
