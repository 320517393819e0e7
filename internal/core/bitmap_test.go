package core

import (
	"math/rand"
	"testing"

	"repro/internal/granule"
)

// TestBitmapAgainstSet drives the guard bitmap and a granule.Set with the
// same random ranges — biased to start and end at the 63/64/65 word edges —
// and requires any-of, all-of and runs-in-range to agree after every set.
func TestBitmapAgainstSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	edge := func(n int) granule.ID {
		if rng.Intn(2) == 0 {
			return granule.ID(rng.Intn(n + 1))
		}
		g := 64*rng.Intn(n/64+1) + rng.Intn(3) - 1 // a word boundary, or one either side
		return granule.ID(min(max(g, 0), n))
	}
	randRange := func(n int) granule.Range {
		a, b := edge(n), edge(n)
		if a > b {
			a, b = b, a
		}
		return granule.R(a, b)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 300} {
		for iter := 0; iter < 40; iter++ {
			b := make(bitmap, (n+63)/64)
			var ref granule.Set
			for step := 0; step < 12; step++ {
				r := randRange(n)
				b.set(r)
				ref.AddRange(r)
				for probe := 0; probe < 8; probe++ {
					q := randRange(n)
					if got, want := b.any(q), ref.IntersectsRange(q); got != want {
						t.Fatalf("n=%d %v: any(%v) = %v, want %v", n, &ref, q, got, want)
					}
					if got, want := b.all(q), ref.ContainsRange(q); got != want {
						t.Fatalf("n=%d %v: all(%v) = %v, want %v", n, &ref, q, got, want)
					}
					var runs granule.Set
					prev := q.Lo - 1
					b.runs(q, func(r granule.Range) {
						if r.Empty() || r.Lo <= prev {
							t.Fatalf("n=%d: runs(%v) yielded %v after %v: not ascending maximal runs", n, q, r, &runs)
						}
						prev = r.Hi
						runs.AddRange(r)
					})
					if want := ref.IntersectRange(q); !runs.Equal(want) {
						t.Fatalf("n=%d %v: runs(%v) = %v, want %v", n, &ref, q, &runs, want)
					}
				}
			}
		}
	}
}
