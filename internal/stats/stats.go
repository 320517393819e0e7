// Package stats provides the small statistical helpers used by the
// benchmark harness: percentiles over float64 samples and safe ratios. It
// is intentionally dependency-free.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Ratio returns num/den, or 0 when den is 0 (avoids Inf in reports).
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
