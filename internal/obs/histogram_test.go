package obs

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestBucketSchemeEdges(t *testing.T) {
	b := BucketScheme{Min: 1e-3, Octaves: 4, Sub: 4}
	n := b.Octaves * b.Sub
	if got := b.NumBuckets(); got != n+2 {
		t.Fatalf("NumBuckets = %d, want %d", got, n+2)
	}
	if got := b.Max(); math.Abs(got-16e-3) > 1e-15 {
		t.Fatalf("Max = %v", got)
	}
	// Tails.
	for _, v := range []float64{0, -1, 1e-9, b.Min, math.NaN()} {
		if i := b.Index(v); i != 0 {
			t.Fatalf("Index(%v) = %d, want underflow 0", v, i)
		}
	}
	for _, v := range []float64{b.Max(), b.Max() * 2, math.Inf(1)} {
		if i := b.Index(v); i != n+1 {
			t.Fatalf("Index(%v) = %d, want overflow %d", v, i, n+1)
		}
	}
	// Every in-range value lands in a bucket whose bounds contain it
	// (lower-inclusive), and upper bounds are strictly increasing.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := b.Min * math.Pow(2, rng.Float64()*float64(b.Octaves))
		if v >= b.Max() {
			continue
		}
		idx := b.Index(v)
		if idx < 1 || idx > n {
			t.Fatalf("Index(%v) = %d out of regular range", v, idx)
		}
		lower, upper := b.UpperBound(idx-1), b.UpperBound(idx)
		if v < lower || v >= upper {
			t.Fatalf("v=%v in bucket %d [%v,%v)", v, idx, lower, upper)
		}
	}
	for i := 1; i <= n; i++ {
		if b.UpperBound(i) <= b.UpperBound(i-1) {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, b.UpperBound(i), b.UpperBound(i-1))
		}
	}
	// Bucket edges are lower-inclusive: an exact edge indexes into the
	// bucket it opens.
	for i := 1; i < n; i++ {
		edge := b.UpperBound(i)
		if got := b.Index(edge); got != i+1 {
			t.Fatalf("Index(edge %v) = %d, want %d", edge, got, i+1)
		}
	}
}

// TestHistogramQuantileBounds is the quantile property test: against an
// exact sort of random samples, the histogram quantile must never
// underestimate and must overestimate by at most the scheme's 1/Sub
// relative bucket width.
func TestHistogramQuantileBounds(t *testing.T) {
	scheme := DefaultScheme()
	slack := 1 + 1/float64(scheme.Sub)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(scheme)
		n := 100 + rng.Intn(2000)
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform across the ladder, away from the tail buckets.
			samples[i] = scheme.Min * math.Pow(2, 0.01+rng.Float64()*(float64(scheme.Octaves)-0.02))
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		s := h.Snapshot()
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := samples[rank-1]
			got := s.Quantile(q)
			if got < exact {
				t.Fatalf("seed %d q=%v: histogram %v below exact %v", seed, q, got, exact)
			}
			if got > exact*slack+1e-12 {
				t.Fatalf("seed %d q=%v: histogram %v above exact %v by more than 1/Sub", seed, q, got, exact)
			}
		}
		if s.Max != samples[n-1] || s.Min != samples[0] {
			t.Fatalf("seed %d: extremes [%v,%v], want [%v,%v]", seed, s.Min, s.Max, samples[0], samples[n-1])
		}
		if q := s.Quantile(1.0); q != s.Max {
			t.Fatalf("seed %d: p100 %v != max %v", seed, q, s.Max)
		}
	}
}

// TestHistogramMergeAssociativity is the merge property test: (a+b)+c and
// a+(b+c) must agree exactly on counts/extremes and within float tolerance
// on the sum, and both must equal one histogram that observed everything.
func TestHistogramMergeAssociativity(t *testing.T) {
	scheme := BucketScheme{Min: 1e-3, Octaves: 10, Sub: 4}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		all := NewHistogram(scheme)
		parts := make([]HistogramSnapshot, 3)
		for p := range parts {
			h := NewHistogram(scheme)
			for i, n := 0, rng.Intn(500); i < n; i++ {
				v := scheme.Min * math.Pow(2, rng.Float64()*float64(scheme.Octaves)*1.2) // spills into overflow
				h.Observe(v)
				all.Observe(v)
			}
			parts[p] = h.Snapshot()
		}
		abc1 := sum(parts[0], parts[1])
		abc1.Add(parts[2])
		abc2 := sum(parts[0], sum(parts[1], parts[2]))
		for _, pair := range [][2]HistogramSnapshot{{abc1, abc2}, {abc1, all.Snapshot()}} {
			x, y := pair[0], pair[1]
			if x.Count != y.Count || x.Min != y.Min || x.Max != y.Max {
				t.Fatalf("seed %d: merged aggregates differ: %+v vs %+v", seed, x, y)
			}
			for i := range x.Counts {
				if x.Counts[i] != y.Counts[i] {
					t.Fatalf("seed %d bucket %d: %d vs %d", seed, i, x.Counts[i], y.Counts[i])
				}
			}
			if math.Abs(x.Sum-y.Sum) > 1e-9*math.Max(1, math.Abs(x.Sum)) {
				t.Fatalf("seed %d: sums diverge: %v vs %v", seed, x.Sum, y.Sum)
			}
		}
	}
	// A histogram of another scheme does not fold into a non-empty one.
	a := NewHistogram(scheme)
	a.Observe(0.01)
	b := NewHistogram(BucketScheme{Min: 1e-3, Octaves: 10, Sub: 8})
	b.Observe(0.02)
	want := a.Snapshot()
	if a.Add(b.HistogramSnapshot); !reflect.DeepEqual(a.Snapshot(), want) {
		t.Fatal("mismatched schemes added")
	}
}

// sum adds b into a copy of a, leaving both operands untouched.
func sum(a, b HistogramSnapshot) HistogramSnapshot {
	a.Counts = slices.Clone(a.Counts)
	a.Add(b)
	return a
}

// TestHistogramAddEmptyIsIdentity: adding a histogram with no observations
// changes nothing and allocates nothing, whether it has buckets or not, and
// adding into an empty accumulator reproduces the operand.
func TestHistogramAddEmptyIsIdentity(t *testing.T) {
	h := NewHistogram(DefaultScheme())
	for _, v := range []float64{0.003, 0.02, 7} {
		h.Observe(v)
	}
	want := h.Snapshot()
	for name, empty := range map[string]HistogramSnapshot{
		"zero value":      {},
		"no observations": NewHistogram(DefaultScheme()).Snapshot(),
	} {
		if allocs := testing.AllocsPerRun(10, func() { h.Add(empty) }); allocs != 0 {
			t.Errorf("adding %s allocates %v times", name, allocs)
		}
		if !reflect.DeepEqual(h.Snapshot(), want) {
			t.Fatalf("adding %s changed the histogram", name)
		}
		acc := empty
		acc.Counts = slices.Clone(acc.Counts)
		if acc.Add(want); !reflect.DeepEqual(acc, want) {
			t.Fatalf("adding into %s: %+v, want %+v", name, acc, want)
		}
	}
}

func TestHistogramEmptyAndNaN(t *testing.T) {
	h := NewHistogram(DefaultScheme())
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("NaN polluted the histogram: %+v", s)
	}
}

func TestNewHistogramRejectsBadScheme(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid scheme accepted")
		}
	}()
	NewHistogram(BucketScheme{Min: -1, Octaves: 4, Sub: 4})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultScheme())
	vals := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = 1e-4 * math.Pow(2, rng.Float64()*20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&1023])
	}
}
