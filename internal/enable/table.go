package enable

import (
	"fmt"
	"slices"

	"repro/internal/granule"
)

// Map is the compiled form of a Spec over one phase pair: the paper's
// "composite map of first phase granules that must be completed in order to
// enable a particular second phase granule", in both directions, with the
// enablement counters' initial values. It is immutable once Spec.Compile
// returns it, so every run of the program — concurrent ones included —
// shares one Map and copies only the counters (NewTable).
type Map struct {
	kind         Kind
	nPred, nSucc int

	// succs[succOff[p]:succOff[p+1]] lists, in ascending order, the
	// successor granules whose counters completion of current granule p
	// decrements: the composite map as one compressed-sparse-row array.
	// Only allocated for indirect kinds.
	succs   []granule.ID
	succOff []int

	// reqs[reqOff[r]:reqOff[r+1]] is successor granule r's requirement
	// list as its mapping function returned it (duplicates included), kept
	// for ReverseIndirect/Seam maps so that successor-subset planning can
	// scan only the subset's lists instead of the whole composite map.
	reqs   []granule.ID
	reqOff []int

	// initial[r] is the enablement counter successor granule r starts
	// from: the number of distinct current granules it requires. Only
	// allocated for indirect kinds.
	initial []int32

	// readyAtStart holds the successor granules computable the moment the
	// successor phase is initiated (requirement set empty).
	readyAtStart granule.Bitmap

	pendingAtStart int   // successor granules not ready at start
	buildCost      int64 // management units charged for construction
}

// Table is the runtime enablement state of one run of a phase pair: a
// compiled Map plus the enablement counters used during completion
// processing.
//
// A scheduler charges BuildCost — proportional to the number of map
// entries — to the management resource each time it puts a Table to use,
// because the paper warns that "extensive composite granule map generation
// could be self defeating" when executive computation comes at the direct
// expense of worker computation; that the entries are computed once per
// program and not once per run is this implementation's saving, not the
// modelled machine's.
//
// Table is not safe for concurrent use; the (serial) executive owns it.
type Table struct {
	*Map

	// remaining[r] is the enablement counter for successor granule r:
	// the number of not-yet-completed current granules it still requires.
	remaining []int32
	pending   int // successor granules not yet released
}

// CostPerEntry is the management cost, in abstract units, of generating one
// composite-map entry. Exported so experiments can sweep it.
const CostPerEntry = 1

// Build returns a fresh runtime table for spec over a phase pair with nPred
// current granules and nSucc successor granules, compiling the spec if this
// is the first use of it at that size.
func Build(spec *Spec, nPred, nSucc int) (*Table, error) {
	if spec == nil {
		spec = NewNull()
	}
	m, err := spec.Compile(nPred, nSucc)
	if err != nil {
		return nil, err
	}
	return m.NewTable(), nil
}

// NewTable returns the enablement state for one run over m: m's arrays
// shared, the counters copied.
func (m *Map) NewTable() *Table {
	return &Table{Map: m, remaining: slices.Clone(m.initial), pending: m.pendingAtStart}
}

// compile is Spec.Compile's one pass over the mapping functions.
func compile(spec *Spec, nPred, nSucc int) (m *Map, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("enable: %v mapping function panicked: %v", spec.Kind, r)
		}
	}()
	m = &Map{kind: spec.Kind, nPred: nPred, nSucc: nSucc, readyAtStart: granule.NewBitmap(nSucc)}
	switch spec.Kind {
	case Null:
		// Nothing is enabled before phase completion. The scheduler
		// treats the whole successor phase as ready only after the
		// serial action; the map exists only for uniformity.
		m.pendingAtStart = nSucc
	case Universal:
		m.readyAtStart.Set(granule.Span(nSucc))
		m.buildCost = CostPerEntry // constant: one queue insertion
	case Identity:
		// Successor granule i waits for current granule i. Successor
		// granules beyond the current phase's extent have no
		// dependence and are ready at start.
		overlap := min(nPred, nSucc)
		if overlap < nSucc {
			m.readyAtStart.Set(granule.R(granule.ID(overlap), granule.ID(nSucc)))
		}
		m.pendingAtStart = overlap
		m.buildCost = CostPerEntry // the relation is implicit; no map storage
	case ForwardIndirect:
		if spec.Forward == nil {
			return nil, fmt.Errorf("enable: %v spec missing Forward function", spec.Kind)
		}
		// The map is already in the table's direction: rows are appended
		// in order.
		m.initial = make([]int32, nSucc)
		m.succOff = make([]int, nPred+1)
		m.succs = make([]granule.ID, 0, nPred)
		for p := 0; p < nPred; p++ {
			row := spec.Forward(granule.ID(p))
			for _, r := range row {
				if r < 0 || int(r) >= nSucc {
					return nil, fmt.Errorf("enable: forward map sends %d to %d, outside successor [0,%d)", p, r, nSucc)
				}
				m.initial[r]++
			}
			m.succs = append(m.succs, row...)
			m.succOff[p+1] = len(m.succs)
		}
		m.finishIndirect(len(m.succs))
	case ReverseIndirect, Seam:
		if spec.Requires == nil {
			return nil, fmt.Errorf("enable: %v spec missing Requires function", spec.Kind)
		}
		// The map arrives transposed (per successor), so the forward rows
		// are built in two passes over one call of Requires per successor.
		// Pass one keeps each requirement list back to back in reqs, and
		// counts its distinct entries into initial[r] and into their rows'
		// succOff. stamp[p] == r+1 marks p as already counted for r.
		m.initial = make([]int32, nSucc)
		m.succOff = make([]int, nPred+1)
		m.reqOff = make([]int, nSucc+1)
		m.reqs = make([]granule.ID, 0, nSucc)
		stamp := make([]int32, nPred)
		entries := 0
		for r := 0; r < nSucc; r++ {
			list := spec.Requires(granule.ID(r))
			for _, p := range list {
				if p < 0 || int(p) >= nPred {
					return nil, fmt.Errorf("enable: requires map for %d names %d, outside predecessor [0,%d)", r, p, nPred)
				}
				if stamp[p] == int32(r)+1 {
					continue // duplicate requirement counts once
				}
				stamp[p] = int32(r) + 1
				m.initial[r]++
				m.succOff[p+1]++
				entries++
			}
			if need := len(m.reqs) + len(list); need > cap(m.reqs) {
				// Double outright: append's gentler growth of large
				// slices would cost more reallocations the more
				// granules the phase has.
				m.reqs = slices.Grow(m.reqs, need)
			}
			m.reqs = append(m.reqs, list...)
			m.reqOff[r+1] = len(m.reqs)
		}
		// Pass two turns the counts into row starts and deals the
		// successors out to their rows, in ascending order; -(r+1) is its
		// duplicate mark, which no stamp of pass one equals. Each row's
		// start doubles as its fill cursor, which leaves every start one
		// row late; the final shift puts them back.
		for p := 0; p < nPred; p++ {
			m.succOff[p+1] += m.succOff[p]
		}
		m.succs = make([]granule.ID, entries)
		for r := 0; r < nSucc; r++ {
			for _, p := range m.requirements(granule.ID(r)) {
				if stamp[p] == -int32(r)-1 {
					continue
				}
				stamp[p] = -int32(r) - 1
				m.succs[m.succOff[p]] = granule.ID(r)
				m.succOff[p]++
			}
		}
		copy(m.succOff[1:], m.succOff)
		m.succOff[0] = 0
		m.finishIndirect(entries)
	default:
		return nil, fmt.Errorf("enable: invalid kind %v", spec.Kind)
	}
	return m, nil
}

func (m *Map) finishIndirect(entries int) {
	for r, c := range m.initial {
		if c == 0 {
			m.readyAtStart.Set(granule.R(granule.ID(r), granule.ID(r)+1))
		} else {
			m.pendingAtStart++
		}
	}
	m.buildCost = int64(entries) * CostPerEntry
}

// row returns the successor granules current granule p enables (indirect
// kinds; p < nPred).
func (m *Map) row(p granule.ID) []granule.ID {
	return m.succs[m.succOff[p]:m.succOff[p+1]]
}

// requirements returns successor granule r's requirement list as compiled
// (ReverseIndirect and Seam; r < nSucc).
func (m *Map) requirements(r granule.ID) []granule.ID {
	return m.reqs[m.reqOff[r]:m.reqOff[r+1]]
}

// Kind reports the mapping kind the map was compiled from.
func (m *Map) Kind() Kind { return m.kind }

// BuildCost reports the management cost of constructing the map.
func (m *Map) BuildCost() int64 { return m.buildCost }

// ReadyAtStart returns the successor granules computable at successor-phase
// initiation. The returned bitmap is shared by every table over the map;
// callers copy it and never write it.
func (m *Map) ReadyAtStart() granule.Bitmap { return m.readyAtStart }

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

// CompleteRange applies Complete to every granule in run, setting the
// emitted successor granules in enabled. It returns the number of counters
// touched.
func (t *Table) CompleteRange(run granule.Range, enabled granule.Bitmap) int {
	touched := 0
	for p := run.Lo; p < run.Hi; p++ {
		touched += t.Complete(p, func(r granule.ID) { enabled.Set(granule.R(r, r+1)) })
	}
	return touched
}

// PredsFor sets in preds the current-phase granules whose completion
// contributes to enabling the successor granules in succs — the input to
// the paper's priority-elevation strategy ("they should be split into
// individual descriptions and placed in the waiting computation queue in
// such a manner as to elevate their computational priority"). The cost of
// this scan is proportional to the stored map size for forward mappings and
// to the requirement lists for reverse mappings; it returns that entry
// count.
func (m *Map) PredsFor(succs, preds granule.Bitmap) int {
	scanned := 0
	switch m.kind {
	case Identity:
		succs.Runs(granule.Span(m.nSucc), func(r granule.Range) {
			scanned += r.Len()
			preds.Set(r.Intersect(granule.Span(m.nPred)))
		})
	case ReverseIndirect, Seam:
		// The requirement lists of the subset alone determine the
		// enabling predecessors — no full-map scan needed.
		succs.Runs(granule.Span(m.nSucc), func(rs granule.Range) {
			for r := rs.Lo; r < rs.Hi; r++ {
				for _, p := range m.requirements(r) {
					scanned++
					preds.Set(granule.R(p, p+1))
				}
			}
		})
	case ForwardIndirect:
		// Forward maps must be scanned in the map's own direction.
		for p := granule.ID(0); int(p) < m.nPred; p++ {
			for _, r := range m.row(p) {
				scanned++
				if succs.Has(r) {
					preds.Set(granule.R(p, p+1))
					break
				}
			}
		}
	}
	return scanned
}
