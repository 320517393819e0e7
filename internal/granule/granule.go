// Package granule defines the identifier and interval types used throughout
// the reproduction of Jones's 1986 phase-overlap system (NASA TM-87349).
//
// In the paper's terminology a parallel program is divided into sequential
// *phases*; each phase consists of *granules*, the indivisible units of
// parallel computation. The PAX executive described large contiguous
// collections of granules as single "computation descriptions" that were
// split apart on demand to produce conveniently sized tasks for workers and
// merged back when the work completed. This package provides the value types
// for that machinery: granule and phase identifiers, half-open contiguous
// ranges, and the one granule-set type, a per-phase Bitmap whose maximal
// runs are the contiguous collections.
package granule

import "fmt"

// ID identifies a single granule within one phase. Granules of a phase with
// n granules are numbered 0..n-1.
type ID int

// PhaseID identifies a phase within a program. Phases of a program with k
// phases are numbered 0..k-1 in dispatch order.
type PhaseID int

// Ref names one granule of one phase.
type Ref struct {
	Phase   PhaseID
	Granule ID
}

// String returns "phase:granule", e.g. "3:17".
func (r Ref) String() string { return fmt.Sprintf("%d:%d", r.Phase, r.Granule) }

// Range is a half-open contiguous interval [Lo, Hi) of granule IDs. The
// zero Range is empty. A Range with Hi <= Lo is treated as empty.
type Range struct {
	Lo, Hi ID
}

// R constructs the range [lo, hi).
func R(lo, hi ID) Range { return Range{Lo: lo, Hi: hi} }

// Span constructs the range [0, n) covering a whole phase of n granules.
func Span(n int) Range { return Range{Lo: 0, Hi: ID(n)} }

// Len reports the number of granules in the range.
func (r Range) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return int(r.Hi - r.Lo)
}

// Empty reports whether the range contains no granules.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Contains reports whether id lies inside the range.
func (r Range) Contains(id ID) bool { return id >= r.Lo && id < r.Hi }

// Intersect returns the common sub-range of r and s (possibly empty).
func (r Range) Intersect(s Range) Range {
	lo, hi := r.Lo, r.Hi
	if s.Lo > lo {
		lo = s.Lo
	}
	if s.Hi < hi {
		hi = s.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Range{Lo: lo, Hi: hi}
}

// TakeFront splits off the first n granules of the range. It returns the
// front part (at most n granules) and the remainder. This models PAX's
// demand-driven splitting of a computation description when an idle worker
// presents itself.
func (r Range) TakeFront(n int) (front, rest Range) {
	if n <= 0 || r.Empty() {
		return Range{Lo: r.Lo, Hi: r.Lo}, r
	}
	if n >= r.Len() {
		return r, Range{Lo: r.Hi, Hi: r.Hi}
	}
	mid := r.Lo + ID(n)
	return Range{Lo: r.Lo, Hi: mid}, Range{Lo: mid, Hi: r.Hi}
}

// Chunks divides the range into consecutive sub-ranges of at most grain
// granules each. grain <= 0 is treated as 1. This models pre-splitting a
// description into worker-sized tasks ahead of demand.
func (r Range) Chunks(grain int) []Range {
	if grain <= 0 {
		grain = 1
	}
	if r.Empty() {
		return nil
	}
	out := make([]Range, 0, (r.Len()+grain-1)/grain)
	for lo := r.Lo; lo < r.Hi; lo += ID(grain) {
		hi := lo + ID(grain)
		if hi > r.Hi {
			hi = r.Hi
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// Each calls f for every granule ID in the range in ascending order.
func (r Range) Each(f func(ID)) {
	for id := r.Lo; id < r.Hi; id++ {
		f(id)
	}
}

// IDs returns the granule IDs of the range in ascending order. Intended for
// tests and small ranges; large ranges should use Each or arithmetic.
func (r Range) IDs() []ID {
	out := make([]ID, 0, r.Len())
	r.Each(func(id ID) { out = append(out, id) })
	return out
}

// String returns "[lo,hi)".
func (r Range) String() string {
	if r.Empty() {
		return "[)"
	}
	return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi)
}
