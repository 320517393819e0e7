package core

import (
	"math/bits"

	"repro/internal/granule"
)

// bitmap is one bit per granule of a phase: the dispatch and completion
// guards, which run once per task and would otherwise search an interval
// set, answer for a grain-sized range with a word operation or two. It is
// pointer-free. The rare consumers that need runs walk them with runs.
type bitmap []uint64

// any reports whether any granule of r is set.
func (b bitmap) any(r granule.Range) bool { return b.next(r.Lo, r.Hi, 0) < r.Hi }

// all reports whether every granule of r is set.
func (b bitmap) all(r granule.Range) bool { return b.next(r.Lo, r.Hi, ^uint64(0)) >= r.Hi }

// set sets every granule of r.
func (b bitmap) set(r granule.Range) {
	for g := r.Lo; g < r.Hi; g = (g | 63) + 1 {
		m := ^uint64(0) << (g & 63) // g to the end of its word,
		if r.Hi-1 <= g|63 {
			m &= ^uint64(0) >> (63 - (r.Hi-1)&63) // clipped at r's end
		}
		b[g>>6] |= m
	}
}

// runs calls f on every maximal run of set granules inside r (clipped to
// r), in ascending order.
func (b bitmap) runs(r granule.Range, f func(granule.Range)) {
	for g := r.Lo; g < r.Hi; {
		lo := b.next(g, r.Hi, 0)
		if lo == r.Hi {
			return
		}
		g = b.next(lo, r.Hi, ^uint64(0))
		f(granule.R(lo, g))
	}
}

// next returns the first granule of [g, end) that is set (flip 0) or clear
// (flip all ones), or end when there is none.
func (b bitmap) next(g, end granule.ID, flip uint64) granule.ID {
	for ; g < end; g = (g | 63) + 1 {
		if w := (b[g>>6] ^ flip) >> (g & 63); w != 0 {
			return min(g+granule.ID(bits.TrailingZeros64(w)), end)
		}
	}
	return end
}
