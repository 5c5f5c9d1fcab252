package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// refereeChoice is sim.World.bestTarget's selection loop as it stood before
// Choice existed, kept literally so the property test compares Choice with
// the rule the oracle was defined by.
func refereeChoice(ts []int, ms []Measurement, qosS, accTarget float64) (int, Measurement, bool) {
	var (
		best        int
		bestMeas    Measurement
		haveBest    bool
		fallback    int
		fbMeas      Measurement
		haveFB      bool
		accBest     int
		accBestMeas Measurement
		haveAcc     bool
	)
	for i, t := range ts {
		meas := ms[i]
		if meas.Accuracy >= accTarget {
			if meas.LatencyS <= qosS {
				if !haveBest || meas.PPW() > bestMeas.PPW() {
					best, bestMeas, haveBest = t, meas, true
				}
			}
			if !haveFB || meas.LatencyS < fbMeas.LatencyS {
				fallback, fbMeas, haveFB = t, meas, true
			}
		}
		if !haveAcc || meas.Accuracy > accBestMeas.Accuracy {
			accBest, accBestMeas, haveAcc = t, meas, true
		}
	}
	switch {
	case haveBest:
		return best, bestMeas, true
	case haveFB:
		return fallback, fbMeas, true
	case haveAcc:
		return accBest, accBestMeas, true
	}
	return 0, Measurement{}, false
}

// TestChoiceMatchesReferee offers seeded random candidate sets to Choice and
// to the referee. Values come from small pools so PPWs, latencies and
// accuracies tie often; each case is shaped as a mix, as everything over
// QoS, as everything under the accuracy target, or as the empty set.
func TestChoiceMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	energies := []float64{0, 0.5, 1, 1, 2, 4}
	latencies := []float64{0.01, 0.02, 0.02, 0.05, 0.1}
	accuracies := []float64{50, 65, 65, 70, 76}
	pick := func(pool []float64) float64 { return pool[rng.Intn(len(pool))] }
	shapes := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		shape := []string{"mixed", "over-qos", "under-acc", "empty"}[iter%4]
		qos, acc := pick(latencies), pick(accuracies)
		n := 1 + rng.Intn(8)
		if shape == "empty" {
			n = 0
		}
		ts := make([]int, n)
		ms := make([]Measurement, n)
		for i := range ms {
			ts[i] = i
			ms[i] = Measurement{EnergyJ: pick(energies), LatencyS: pick(latencies), Accuracy: pick(accuracies)}
			switch shape {
			case "over-qos":
				ms[i].LatencyS = qos + 0.001*float64(1+rng.Intn(3))
			case "under-acc":
				ms[i].Accuracy = acc - float64(1+rng.Intn(3))
			}
		}
		ch := Choice{QoSS: qos, AccTarget: acc}
		for i := range ts {
			ch.Offer(ts[i], ms[i])
		}
		gotT, gotM, gotOK := ch.Result()
		wantT, wantM, wantOK := refereeChoice(ts, ms, qos, acc)
		if gotT != wantT || !reflect.DeepEqual(gotM, wantM) || gotOK != wantOK {
			t.Fatalf("%s case %d (qos %v, acc %v, %+v): Choice = %d %+v %v, referee = %d %+v %v",
				shape, iter, qos, acc, ms, gotT, gotM, gotOK, wantT, wantM, wantOK)
		}
		shapes[shape]++
	}
	if len(shapes) != 4 {
		t.Fatalf("shapes covered: %v", shapes)
	}
}
