package obs

import (
	"fmt"
	"math"
	"slices"
)

// BucketScheme defines a log-linear bucket ladder: Octaves power-of-two
// ranges above Min, each split into Sub linear buckets. Bucket edges are
// exact (Min scaled by powers of two), so the relative quantile error is
// bounded by 1/Sub across the whole range — the same layout HDR histograms
// use, picked here because the bucket index is a pair of float tricks
// (Frexp plus a multiply) instead of a log call on the hot path.
//
// Two extra buckets catch the tails: index 0 holds values below (or at) Min,
// the last index holds values above Max().
type BucketScheme struct {
	// Min is the lower edge of the first log-linear bucket. Must be > 0.
	Min float64 `json:"min"`
	// Octaves is how many power-of-two ranges the ladder spans above Min.
	Octaves int `json:"octaves"`
	// Sub is the number of linear buckets per octave.
	Sub int `json:"sub"`
}

// DefaultScheme spans 1e-4 to ~104 (2^20 octaves) with 8 linear buckets per
// octave — 100 µs to 100 s when observing seconds, 0.1 mJ to 100 J when
// observing joules — with ≤ 12.5% relative quantile error.
func DefaultScheme() BucketScheme { return BucketScheme{Min: 1e-4, Octaves: 20, Sub: 8} }

// valid reports whether the scheme is well-formed.
func (b BucketScheme) valid() bool {
	return b.Min > 0 && !math.IsInf(b.Min, 0) && b.Octaves >= 1 && b.Sub >= 1
}

// Max returns the upper edge of the last log-linear bucket.
func (b BucketScheme) Max() float64 { return math.Ldexp(b.Min, b.Octaves) }

// NumBuckets returns the total bucket count including the two tail buckets.
func (b BucketScheme) NumBuckets() int { return b.Octaves*b.Sub + 2 }

// Index maps a value to its bucket. Buckets are lower-inclusive: bucket i
// covers [UpperBound(i-1), UpperBound(i)).
func (b BucketScheme) Index(v float64) int {
	if !(v > b.Min) { // NaN also lands in the underflow bucket
		return 0
	}
	n := b.Octaves * b.Sub
	if v >= b.Max() {
		return n + 1
	}
	// v/Min in (1, 2^Octaves): Frexp gives f in [0.5,1) with v/Min = f*2^e,
	// so the octave is e-1 and 2f in [1,2) is the position within it.
	f, e := math.Frexp(v / b.Min)
	o := e - 1
	if o < 0 { // v barely above Min with rounding
		return 1
	}
	s := int((2*f - 1) * float64(b.Sub))
	if s >= b.Sub {
		s = b.Sub - 1
	}
	idx := 1 + o*b.Sub + s
	if idx > n {
		idx = n
	}
	return idx
}

// UpperBound returns the exclusive upper edge of bucket i. The underflow
// bucket's bound is Min; the overflow bucket's is +Inf.
func (b BucketScheme) UpperBound(i int) float64 {
	n := b.Octaves * b.Sub
	switch {
	case i <= 0:
		return b.Min
	case i > n:
		return math.Inf(1)
	}
	o := (i - 1) / b.Sub
	s := (i - 1) % b.Sub
	return math.Ldexp(b.Min*(1+(float64(s)+1)/float64(b.Sub)), o)
}

// Histogram is a fixed-scheme log-linear histogram being filled: a
// HistogramSnapshot with a constructor that validates its scheme. It is
// plain arithmetic with no lock of its own; whoever owns one serializes
// Observe against every read (the metrics registry holds its mutex).
type Histogram struct{ HistogramSnapshot }

// NewHistogram builds an empty histogram over the scheme. It panics on a
// malformed scheme — bucket layout is a compile-time decision, not runtime
// input.
func NewHistogram(scheme BucketScheme) *Histogram {
	if !scheme.valid() {
		panic(fmt.Sprintf("obs: invalid bucket scheme %+v", scheme))
	}
	return &Histogram{HistogramSnapshot{Scheme: scheme, Counts: make([]int64, scheme.NumBuckets())}}
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := h.HistogramSnapshot
	s.Counts = slices.Clone(s.Counts)
	return s
}

// HistogramSnapshot is a histogram as a plain value: Observe fills it and
// Add folds another one into it. Snapshots with the same scheme add
// losslessly, so per-shard histograms can be aggregated into fleet views.
type HistogramSnapshot struct {
	Scheme BucketScheme `json:"scheme"`
	// Counts has one entry per bucket (NumBuckets, including both tails).
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	// Min and Max are the observed extremes (both zero when Count is 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0..1) as the upper bound of the bucket
// holding it, capped at the observed maximum — so the estimate never
// exceeds any value actually seen, and overflow-bucket quantiles degrade to
// the exact max instead of +Inf. Empty snapshots report 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return math.Min(s.Scheme.UpperBound(i), s.Max)
		}
	}
	return s.Max
}

// Observe records one value into a snapshot whose Counts already span its
// scheme (NewHistogram's, or one that Add filled). NaN observations are
// dropped.
func (s *HistogramSnapshot) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.Counts[s.Scheme.Index(v)]++
	s.Sum += v
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
}

// Add folds o into s in place: counts add bucket-wise, so adding is
// associative and commutative up to floating-point addition order in Sum.
// An o with no observations is the identity and allocates nothing; an s
// with none takes o's scheme and copies o, reusing its own bucket slice
// when it is long enough. Between two non-empty histograms of different
// schemes s keeps what it has (registries built by one ladder never
// differ).
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	switch {
	case o.Count == 0:
		return
	case s.Count == 0:
		counts := append(s.Counts[:0], o.Counts...)
		*s = o
		s.Counts = counts
		return
	case s.Scheme != o.Scheme || len(s.Counts) != len(o.Counts):
		return
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Min = math.Min(s.Min, o.Min)
	s.Max = math.Max(s.Max, o.Max)
}
