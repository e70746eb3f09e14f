package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 drawn from fewer than 1000 samples would be the maximum in disguise.
const minBeyond = 10

// rankOf returns the nearest-rank index of quantile q in n sorted samples.
func rankOf(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(idx, n-1))
}

// percentile returns the nearest-rank q-quantile of sorted, and an error
// when fewer than minBeyond samples lie beyond it.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.4g of no samples", q)
	}
	idx := rankOf(n, q)
	if beyond := n - 1 - idx; q < 1 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.4g of %d samples leaves %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// loosePercentile is percentile without the samples-beyond rule, for
// per-layer figures that report their sample count alongside; 0 when
// there are no samples.
func loosePercentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)]
}

// sortedCopy returns the samples sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// medianFloat returns the median of xs (mean of the middle pair for even
// counts); 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides with a zero base reading as 0, so counters of an idle
// layer print as 0 rather than NaN.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
