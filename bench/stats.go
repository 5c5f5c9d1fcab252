package main

import (
	"cmp"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted sample: the smallest element with at least q of the
// sample at or below it. Zero for an empty sample.
func percentile[T cmp.Ordered](sorted []T, q float64) T {
	var zero T
	n := len(sorted)
	if n == 0 {
		return zero
	}
	// ceil(q*n) without float rounding surprises at exact multiples.
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median sorts a copy of vals and returns the middle element (mean of the
// two middle elements for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mergeSorted concatenates per-client sample slices and sorts the result.
func mergeSorted[T cmp.Ordered](parts ...[]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}
