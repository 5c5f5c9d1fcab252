package exec

import (
	"math"
	"sync"
	"testing"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	a := deriveSeed(1, "noise", 7)
	b := deriveSeed(1, "noise", 7)
	if a != b {
		t.Fatalf("same inputs gave %d and %d", a, b)
	}
	if deriveSeed(1, "noise", 8) == a {
		t.Fatal("different id collided")
	}
	if deriveSeed(1, "outage", 7) == a {
		t.Fatal("different purpose collided")
	}
	if deriveSeed(2, "noise", 7) == a {
		t.Fatal("different base collided")
	}
}

func TestStreamReproducible(t *testing.T) {
	root := NewRoot(42)
	a := root.Child("req", 3).Stream("noise")
	b := NewRoot(42).Child("req", 3).Stream("noise")
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
}

func TestStreamsIndependentOfSiblingOrder(t *testing.T) {
	// Draws on one request's stream must not perturb a sibling's stream.
	root := NewRoot(7)
	want := make([]float64, 10)
	s := root.Child("req", 2).Stream("noise")
	for i := range want {
		want[i] = s.NormFloat64()
	}

	root2 := NewRoot(7)
	other := root2.Child("req", 1).Stream("noise")
	for i := 0; i < 1000; i++ { // interleave heavy sibling traffic
		other.NormFloat64()
	}
	s2 := root2.Child("req", 2).Stream("noise")
	for i := range want {
		if got := s2.NormFloat64(); got != want[i] {
			t.Fatalf("draw %d: got %v want %v", i, got, want[i])
		}
	}
}

func TestStreamsConcurrentMatchSerial(t *testing.T) {
	const n = 64
	serial := make([]float64, n)
	root := NewRoot(11)
	for i := 0; i < n; i++ {
		serial[i] = root.Child("req", uint64(i)).Stream("noise").Float64()
	}

	parallel := make([]float64, n)
	root2 := NewRoot(11)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i] = root2.Child("req", uint64(i)).Stream("noise").Float64()
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("req %d: serial %v parallel %v", i, serial[i], parallel[i])
		}
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("NormFloat64 variance %v, want ~1", variance)
	}

	u := NewRand(100)
	var usum float64
	for i := 0; i < n; i++ {
		v := u.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		usum += v
	}
	if m := usum / n; math.Abs(m-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", m)
	}
}

// TestRandCloneContinuesIndependently: a clone yields exactly the draws its
// source would have yielded from the clone point, whichever of the two draws
// first, because neither moves the other.
func TestRandCloneContinuesIndependently(t *testing.T) {
	draws := func(r *Rand) (out [64]float64) {
		for i := 0; i < len(out); i += 4 {
			out[i], out[i+1] = r.Float64(), r.NormFloat64()
			out[i+2], out[i+3] = float64(r.Intn(66)), r.ExpFloat64()
		}
		return out
	}
	r := NewRand(7)
	draws(r)
	c := r.Clone()
	fromClone := draws(c)
	if got := draws(r); got != fromClone {
		t.Fatal("source diverged from its clone after the clone drew first")
	}
	c = r.Clone()
	fromSource := draws(r)
	if got := draws(c); got != fromSource {
		t.Fatal("clone diverged from its source after the source drew first")
	}
	// Pooled streams carry their source too.
	p := NewRoot(3).GetStream("pooled")
	defer PutStream(p)
	draws(p)
	pc := p.Clone()
	if draws(pc) != draws(p) {
		t.Fatal("clone of a pooled stream diverged")
	}
}

func TestLowEntropySeedsDiverge(t *testing.T) {
	// Adjacent seeds must not produce correlated leading draws.
	seen := map[float64]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		v := NewRand(seed).Float64()
		if seen[v] {
			t.Fatalf("seed %d repeated leading draw %v", seed, v)
		}
		seen[v] = true
	}
}

func TestClock(t *testing.T) {
	root := NewRoot(1)
	child := root.Child("req", 1)
	if root.Now() != 0 {
		t.Fatalf("fresh clock at %v", root.Now())
	}
	child.Advance(1.5)
	child.Advance(-3) // ignored
	if got := root.Now(); got != 1.5 {
		t.Fatalf("clock = %v, want 1.5 (shared with child)", got)
	}
}

func TestSeedPurposeSeparation(t *testing.T) {
	root := NewRoot(3)
	if root.Seed("a") == root.Seed("b") {
		t.Fatal("distinct purposes produced identical seeds")
	}
	if root.Seed("a") != root.Seed("a") {
		t.Fatal("Seed not deterministic")
	}
}

func BenchmarkStreamDerive(b *testing.B) {
	root := NewRoot(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = root.Child("req", uint64(i)).Stream("noise").Float64()
	}
}
