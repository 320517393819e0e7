package enable

import (
	"fmt"
	"slices"

	"repro/internal/granule"
)

// Table is the runtime enablement state for one phase pair: the paper's
// "composite map of first phase granules that must be completed in order to
// enable a particular second phase granule", plus the enablement counters
// used during completion processing.
//
// Build charges a management cost proportional to the number of map entries
// generated — the paper warns that "extensive composite granule map
// generation could be self defeating" when executive computation comes at
// the direct expense of worker computation. The scheduler charges that cost
// to the management resource.
//
// Table is not safe for concurrent use; the (serial) executive owns it.
type Table struct {
	kind         Kind
	nPred, nSucc int

	// remaining[r] is the enablement counter for successor granule r:
	// the number of not-yet-completed current granules it still requires.
	// Only allocated for indirect kinds.
	remaining []int32

	// succs[succOff[p]:succOff[p+1]] lists, in ascending order, the
	// successor granules whose counters completion of current granule p
	// decrements: the composite map as one compressed-sparse-row array.
	// Only allocated for indirect kinds.
	succs   []granule.ID
	succOff []int

	// requires is retained for ReverseIndirect/Seam tables so that
	// successor-subset planning can scan only the subset's requirement
	// lists instead of the whole composite map.
	requires RequiresFn

	// readyAtStart holds the successor granules computable the moment the
	// successor phase is initiated (requirement set empty).
	readyAtStart *granule.Set

	pending   int   // successor granules not yet released
	buildCost int64 // management units charged for construction
}

// CostPerEntry is the management cost, in abstract units, of generating one
// composite-map entry. Exported so experiments can sweep it.
const CostPerEntry = 1

// Build constructs the runtime table for spec over a phase pair with nPred
// current granules and nSucc successor granules. It validates the spec and
// reports the management cost of construction via Table.BuildCost.
func Build(spec *Spec, nPred, nSucc int) (*Table, error) {
	if spec == nil {
		spec = NewNull()
	}
	if nPred < 0 || nSucc < 0 {
		return nil, fmt.Errorf("enable: negative phase size (%d, %d)", nPred, nSucc)
	}
	if err := spec.Validate(nPred, nSucc); err != nil {
		return nil, err
	}
	t := &Table{
		kind:         spec.Kind,
		nPred:        nPred,
		nSucc:        nSucc,
		readyAtStart: granule.NewSet(),
	}
	switch spec.Kind {
	case Null:
		// Nothing is enabled before phase completion. The scheduler
		// treats the whole successor phase as ready only after the
		// serial action; the table exists only for uniformity.
		t.pending = nSucc
	case Universal:
		t.readyAtStart.AddRange(granule.Span(nSucc))
		t.pending = 0
		t.buildCost = CostPerEntry // constant: one queue insertion
	case Identity:
		// Successor granule i waits for current granule i. Successor
		// granules beyond the current phase's extent have no
		// dependence and are ready at start.
		overlap := nSucc
		if nPred < overlap {
			overlap = nPred
		}
		if overlap < nSucc {
			t.readyAtStart.AddRange(granule.R(granule.ID(overlap), granule.ID(nSucc)))
		}
		t.pending = overlap
		t.buildCost = CostPerEntry // the relation is implicit; no map storage
	case ForwardIndirect:
		// The map is already in the table's direction: rows are appended
		// in order.
		t.remaining = make([]int32, nSucc)
		t.succOff = make([]int, nPred+1)
		t.succs = make([]granule.ID, 0, nPred)
		for p := 0; p < nPred; p++ {
			row := spec.Forward(granule.ID(p))
			t.succs = append(t.succs, row...)
			t.succOff[p+1] = len(t.succs)
			for _, r := range row {
				t.remaining[r]++
			}
		}
		t.finishIndirect(len(t.succs))
	case ReverseIndirect, Seam:
		// The map arrives transposed (per successor), so the rows are built
		// in two passes over one call of Requires per successor. Pass one
		// keeps each requirement list, duplicates dropped, back to back in
		// reqs — remaining[r] is the length of r's stretch — and counts each
		// row's entries into succOff. stamp[p] == r+1 marks p as already
		// listed for r.
		t.requires = spec.Requires
		t.remaining = make([]int32, nSucc)
		t.succOff = make([]int, nPred+1)
		stamp := make([]int32, nPred)
		reqs := make([]granule.ID, 0, nSucc)
		for r := 0; r < nSucc; r++ {
			for _, p := range spec.Requires(granule.ID(r)) {
				if stamp[p] == int32(r)+1 {
					continue // duplicate requirement counts once
				}
				stamp[p] = int32(r) + 1
				if len(reqs) == cap(reqs) {
					// Double outright: append's gentler growth of large
					// slices would cost more reallocations the more
					// granules the phase has.
					reqs = slices.Grow(reqs, len(reqs)+1)
				}
				reqs = append(reqs, p)
				t.remaining[r]++
				t.succOff[p+1]++
			}
		}
		// Pass two turns the counts into row starts and deals the
		// successors out to their rows, in ascending order. Each row's
		// start doubles as its fill cursor, which leaves every start one
		// row late; the final shift puts them back.
		for p := 0; p < nPred; p++ {
			t.succOff[p+1] += t.succOff[p]
		}
		t.succs = make([]granule.ID, len(reqs))
		k := 0
		for r := 0; r < nSucc; r++ {
			for end := k + int(t.remaining[r]); k < end; k++ {
				p := reqs[k]
				t.succs[t.succOff[p]] = granule.ID(r)
				t.succOff[p]++
			}
		}
		copy(t.succOff[1:], t.succOff)
		t.succOff[0] = 0
		t.finishIndirect(len(reqs))
	default:
		return nil, fmt.Errorf("enable: invalid kind %v", spec.Kind)
	}
	return t, nil
}

func (t *Table) finishIndirect(entries int) {
	pending := 0
	for r, c := range t.remaining {
		if c == 0 {
			t.readyAtStart.Add(granule.ID(r))
		} else {
			pending++
		}
	}
	t.pending = pending
	t.buildCost = int64(entries) * CostPerEntry
}

// row returns the successor granules current granule p enables (indirect
// kinds; p < nPred).
func (t *Table) row(p granule.ID) []granule.ID {
	return t.succs[t.succOff[p]:t.succOff[p+1]]
}

// Kind reports the mapping kind the table was built for.
func (t *Table) Kind() Kind { return t.kind }

// BuildCost reports the management cost charged for constructing the table.
func (t *Table) BuildCost() int64 { return t.buildCost }

// ReadyAtStart returns the successor granules computable at successor-phase
// initiation. The returned set is owned by the table; callers clone it.
func (t *Table) ReadyAtStart() *granule.Set { return t.readyAtStart }

// Pending reports how many successor granules are still awaiting enablement
// through completion processing (excludes ready-at-start granules).
func (t *Table) Pending() int { return t.pending }

// Complete performs completion processing for one finished current-phase
// granule p: it decrements the enablement counters of every successor
// granule that requires p and calls emit for each counter that reaches
// zero. It returns the number of counters touched (a management cost
// driver). Calling Complete twice for the same granule corrupts the
// counters; the scheduler guarantees exactly-once completion.
func (t *Table) Complete(p granule.ID, emit func(r granule.ID)) int {
	switch t.kind {
	case Null, Universal:
		return 0
	case Identity:
		if int(p) < t.nSucc && int(p) < t.nPred {
			t.pending--
			emit(p)
			return 1
		}
		return 0
	default:
		if int(p) >= t.nPred {
			return 0
		}
		touched := 0
		for _, r := range t.row(p) {
			touched++
			t.remaining[r]--
			if t.remaining[r] == 0 {
				t.pending--
				emit(r)
			}
		}
		return touched
	}
}

// CompleteIdentity is Complete for a whole finished run of current-phase
// granules of an Identity table, in one step: successor granule i waits
// for current granule i alone, so the run enables itself, clipped to the
// phase pair's overlap. It returns that range — every granule of it is
// one counter touch and one emission of Complete — and retires it from
// Pending. The exactly-once rule of Complete applies.
func (t *Table) CompleteIdentity(run granule.Range) granule.Range {
	overlap := t.nSucc
	if t.nPred < overlap {
		overlap = t.nPred
	}
	r := run.Intersect(granule.Span(overlap))
	t.pending -= r.Len()
	return r
}

// CompleteRange applies Complete to every granule in run, coalescing the
// emitted successor granules into a set. It returns the enabled set and the
// number of counters touched.
func (t *Table) CompleteRange(run granule.Range, enabled *granule.Set) int {
	touched := 0
	run.Each(func(p granule.ID) {
		touched += t.Complete(p, func(r granule.ID) { enabled.Add(r) })
	})
	return touched
}

// PredsFor computes the set of current-phase granules whose completion
// contributes to enabling the given successor granules — the input to the
// paper's priority-elevation strategy ("they should be split into
// individual descriptions and placed in the waiting computation queue in
// such a manner as to elevate their computational priority"). The cost of
// this scan is proportional to the stored map size for forward mappings and
// to the requirement lists for reverse mappings; it returns that entry
// count alongside the set.
func (t *Table) PredsFor(succs *granule.Set) (*granule.Set, int) {
	preds := granule.NewSet()
	scanned := 0
	switch t.kind {
	case Null, Universal:
		return preds, 0
	case Identity:
		succs.Each(func(r granule.ID) {
			scanned++
			if int(r) < t.nPred {
				preds.Add(r)
			}
		})
		return preds, scanned
	case ReverseIndirect, Seam:
		// The requirement lists of the subset alone determine the
		// enabling predecessors — no full-map scan needed.
		succs.Each(func(r granule.ID) {
			for _, p := range t.requires(r) {
				scanned++
				preds.Add(p)
			}
		})
		return preds, scanned
	default:
		// Forward maps must be scanned in the map's own direction.
		for p := 0; p < t.nPred; p++ {
			for _, r := range t.row(granule.ID(p)) {
				scanned++
				if succs.Contains(r) {
					preds.Add(granule.ID(p))
					break
				}
			}
		}
		return preds, scanned
	}
}
