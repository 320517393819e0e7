package enable

import (
	"fmt"
	"sync"

	"repro/internal/granule"
)

// ForwardFn maps a completed current-phase granule to the successor
// granules it enables (the paper's forward information selection map; a
// single-valued IMAP yields one-element slices). It must be pure.
//
// The returned slice is read before the next call and is never retained
// or written, so a function may return a view of its own storage.
type ForwardFn func(p granule.ID) []granule.ID

// RequiresFn maps a successor granule to the current-phase granules that
// must all complete before it is enabled (the paper's reverse mapping "from
// desired second phase granule to required first phase granules"). It must
// be pure, and its result is read under ForwardFn's rule: before the next
// call, never retained, never written.
type RequiresFn func(r granule.ID) []granule.ID

// Spec declares the enablement relation from one phase to its successor.
// Construct Specs with the NewXxx constructors, which enforce that the
// mapping functions required by each kind are present.
//
// A Spec is compiled once per phase-pair size (Compile) and the compiled
// map is kept on it, so its fields must not change after first use and a
// Spec is never copied by value.
type Spec struct {
	Kind Kind
	// Forward is consulted for ForwardIndirect specs.
	Forward ForwardFn
	// Requires is consulted for ReverseIndirect and Seam specs.
	Requires RequiresFn

	// maps holds the relation compiled for each (nPred, nSucc) it has met
	// — one entry unless the Spec is shared by pairs of different sizes.
	// mu guards it, and is held while a mapping function runs.
	mu   sync.Mutex
	maps []*Map
}

// NewNull returns the mapping that forbids overlap.
func NewNull() *Spec { return &Spec{Kind: Null} }

// NewUniversal returns the mapping that permits total overlap.
func NewUniversal() *Spec { return &Spec{Kind: Universal} }

// NewIdentity returns the direct mapping I = I.
func NewIdentity() *Spec { return &Spec{Kind: Identity} }

// NewForward returns a forward indirect mapping driven by f.
func NewForward(f ForwardFn) *Spec {
	if f == nil {
		panic("enable: NewForward requires a map function")
	}
	return &Spec{Kind: ForwardIndirect, Forward: f}
}

// NewForwardIMAP adapts a single-valued integer map (the paper's
// IMAP array) into a forward indirect mapping: completing current granule p
// enables successor granule imap[p].
func NewForwardIMAP(imap []granule.ID) *Spec {
	return NewForward(func(p granule.ID) []granule.ID {
		if int(p) >= len(imap) {
			return nil
		}
		return imap[p : p+1]
	})
}

// NewReverse returns a reverse indirect mapping driven by requires.
func NewReverse(requires RequiresFn) *Spec {
	if requires == nil {
		panic("enable: NewReverse requires a map function")
	}
	return &Spec{Kind: ReverseIndirect, Requires: requires}
}

// NewReverseIMAP adapts the paper's second Fortran fragment: successor
// granule r sums A(IMAP(j, r)) for j in 0..fan-1, so it requires the
// current-phase granules imap[r*fan : (r+1)*fan].
func NewReverseIMAP(imap []granule.ID, fan int) *Spec {
	if fan <= 0 {
		panic("enable: NewReverseIMAP fan must be positive")
	}
	return NewReverse(func(r granule.ID) []granule.ID {
		lo := int(r) * fan
		hi := lo + fan
		if lo >= len(imap) {
			return nil
		}
		if hi > len(imap) {
			hi = len(imap)
		}
		return imap[lo:hi]
	})
}

// NewSeam returns the structured stencil mapping: successor granule r
// requires the current-phase granules returned by neighbours(r).
func NewSeam(neighbours RequiresFn) *Spec {
	if neighbours == nil {
		panic("enable: NewSeam requires a neighbour function")
	}
	return &Spec{Kind: Seam, Requires: neighbours}
}

// Compile evaluates the relation over a phase pair of nPred current and
// nSucc successor granules into its immutable compiled form. The first call
// for a size calls each mapping function exactly once per granule — range
// checks ride the same pass, and a panic in a mapping function comes back
// as an error — and every later call returns the same Map without touching
// the functions: compilation belongs to the program, not to each scheduler
// built over it. Safe for concurrent use; mapping functions run under the
// Spec's own lock and on the caller's goroutine only.
func (s *Spec) Compile(nPred, nSucc int) (*Map, error) {
	if nPred < 0 || nSucc < 0 {
		return nil, fmt.Errorf("enable: negative phase size (%d, %d)", nPred, nSucc)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.maps {
		if m.nPred == nPred && m.nSucc == nSucc {
			return m, nil
		}
	}
	m, err := compile(s, nPred, nSucc)
	if err != nil {
		return nil, err
	}
	s.maps = append(s.maps, m)
	return m, nil
}
