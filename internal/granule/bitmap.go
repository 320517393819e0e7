package granule

import "math/bits"

// Bitmap is a set of granules of one phase, one bit per granule: granule g
// is bit g&63 of word g>>6. It is the package's one set type. A phase's
// granules are its dense numbering 0..n-1, so a set over them is n/64
// words whatever its fragmentation: a grain-sized membership test or
// update is a word operation or two, and walking the set's maximal runs —
// the contiguous descriptions the scheduler queues and releases — is a
// scan of the words under the range walked. A Bitmap is pointer-free.
//
// Granules past the end of the storage read as clear, so the nil Bitmap is
// the empty set to every read; writing past the end panics. A Bitmap is
// not safe for concurrent use.
type Bitmap []uint64

// Words reports how many words a Bitmap over n granules takes, so that
// several bitmaps can be cut from one allocation.
func Words(n int) int { return (n + 63) / 64 }

// NewBitmap returns an empty Bitmap over n granules.
func NewBitmap(n int) Bitmap { return make(Bitmap, Words(n)) }

// Has reports whether granule g is set.
func (b Bitmap) Has(g ID) bool { return b.word(g>>6)>>(g&63)&1 != 0 }

// Any reports whether any granule of r is set.
func (b Bitmap) Any(r Range) bool { return b.next(r.Lo, r.Hi, 0) < r.Hi }

// All reports whether every granule of r is set.
func (b Bitmap) All(r Range) bool { return b.next(r.Lo, r.Hi, ^uint64(0)) >= r.Hi }

// Count reports how many granules of r are set.
func (b Bitmap) Count(r Range) int {
	n := 0
	for g := r.Lo; g < r.Hi; g = (g | 63) + 1 {
		n += bits.OnesCount64(b.word(g>>6) & mask(g, r.Hi))
	}
	return n
}

// Set sets every granule of r.
func (b Bitmap) Set(r Range) {
	for g := r.Lo; g < r.Hi; g = (g | 63) + 1 {
		b[g>>6] |= mask(g, r.Hi)
	}
}

// TrySet sets every granule of r unless one of them is already set, and
// reports whether one was: a clash changes nothing. It is Any then Set in
// one pass over r's words, the words it set undone on a clash.
func (b Bitmap) TrySet(r Range) (clash bool) {
	for g := r.Lo; g < r.Hi; g = (g | 63) + 1 {
		m := mask(g, r.Hi)
		if b[g>>6]&m != 0 {
			b.Clear(R(r.Lo, g))
			return true
		}
		b[g>>6] |= m
	}
	return false
}

// Clear clears every granule of r.
func (b Bitmap) Clear(r Range) {
	for g := r.Lo; g < r.Hi; g = (g | 63) + 1 {
		b[g>>6] &^= mask(g, r.Hi)
	}
}

// AndNot clears every granule that is set in c.
func (b Bitmap) AndNot(c Bitmap) {
	for i := range b {
		b[i] &^= c.word(ID(i))
	}
}

// Runs calls f on every maximal run of set granules inside r (clipped to
// r), in ascending order.
func (b Bitmap) Runs(r Range, f func(Range)) { b.walk(r, 0, f) }

// Gaps calls f on every maximal run of clear granules inside r (clipped to
// r), in ascending order: the runs of r's complement of the set.
func (b Bitmap) Gaps(r Range, f func(Range)) { b.walk(r, ^uint64(0), f) }

// walk calls f on the maximal runs inside r of set granules (flip 0) or
// clear ones (flip all ones).
func (b Bitmap) walk(r Range, flip uint64, f func(Range)) {
	for g := r.Lo; g < r.Hi; {
		lo := b.next(g, r.Hi, flip)
		if lo == r.Hi {
			return
		}
		g = b.next(lo, r.Hi, ^flip)
		f(R(lo, g))
	}
}

// next returns the first granule of [g, end) that is set (flip 0) or clear
// (flip all ones), or end when there is none.
func (b Bitmap) next(g, end ID, flip uint64) ID {
	for ; g < end; g = (g | 63) + 1 {
		if w := (b.word(g>>6) ^ flip) >> (g & 63); w != 0 {
			return min(g+ID(bits.TrailingZeros64(w)), end)
		}
	}
	return end
}

// word returns word i of the storage, zero past its end.
func (b Bitmap) word(i ID) uint64 {
	if uint(i) < uint(len(b)) {
		return b[i]
	}
	return 0
}

// mask selects, in g's word, the bits from g up to the word's end or to
// end, whichever is first.
func mask(g, end ID) uint64 {
	m := ^uint64(0) << (g & 63)
	if end-1 <= g|63 {
		m &= ^uint64(0) >> (63 - (end-1)&63)
	}
	return m
}
