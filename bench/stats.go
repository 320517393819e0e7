package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark will report it: with fewer, the percentile is one or two
// outliers, not a property of the system. -smoke lowers it to 0 so a
// two-second run can still emit every name.
var minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs. It refuses —
// returns an error naming n — when fewer than minBeyond samples lie on the
// far side of p.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	tail := math.Min(p, 100-p) / 100
	if beyond := int(float64(n) * tail); n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g refused: n=%d leaves %d samples beyond it, need %d", p, n, beyond, minBeyond)
	}
	return stats.Percentile(xs, p), nil
}

// median is for repeated measurements of one fixed quantity (set-up
// repetitions, probe rounds) rather than a latency distribution, so it
// carries no sample-count guard.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// alphaEff is Végh et al.'s effective parallelization (arXiv 1606.02686):
// the parallel fraction an Amdahl machine of p processors would need to
// show speedup s. It makes a gain at P=2 comparable with one at P=1024.
func alphaEff(p int, s float64) float64 {
	if p < 2 || s <= 0 {
		return 0
	}
	return float64(p) / float64(p-1) * (s - 1) / s
}
