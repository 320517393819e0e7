package enable

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/granule"
)

// Effect names one shared-array element touched by a granule: element Idx
// of array Var. Granule footprints over such effects are the concrete form
// of the paper's abstract predicate PARALLEL(x, y).
type Effect struct {
	Var string
	Idx int
}

func (e Effect) String() string { return fmt.Sprintf("%s[%d]", e.Var, e.Idx) }

// Footprint is the declared shared-data access set of one granule.
type Footprint struct {
	Reads  []Effect
	Writes []Effect
}

// AccessFn returns the footprint of granule g of a phase. It must be pure.
type AccessFn func(g granule.ID) Footprint

// Parallel is the logical predicate PARALLEL(x, y): two computations may
// execute in parallel iff neither writes an element the other reads or
// writes (Bernstein's conditions over the declared footprints). The paper
// leaves the predicate's exact nature open — "different parallel systems
// may identify different logical predicates" — and this implementation
// chooses the classical data-dependence form.
func Parallel(x, y Footprint) bool {
	return !touches(x.Writes, y.Writes) &&
		!touches(x.Writes, y.Reads) &&
		!touches(x.Reads, y.Writes)
}

func touches(a, b []Effect) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	set := make(map[Effect]struct{}, len(a))
	for _, e := range a {
		set[e] = struct{}{}
	}
	for _, e := range b {
		if _, ok := set[e]; ok {
			return true
		}
	}
	return false
}

// Conflicts returns the dependence relation between a predecessor phase
// (nPred granules with footprint pred) and a successor phase (nSucc
// granules with footprint succ): deps[r] lists predecessor granules q with
// !PARALLEL(q, r), ascending. Exhaustive — intended for verification and
// inference on test-sized phases.
func Conflicts(pred AccessFn, nPred int, succ AccessFn, nSucc int) [][]granule.ID {
	pf := make([]Footprint, nPred)
	for q := 0; q < nPred; q++ {
		pf[q] = pred(granule.ID(q))
	}
	deps := make([][]granule.ID, nSucc)
	for r := 0; r < nSucc; r++ {
		sf := succ(granule.ID(r))
		for q := 0; q < nPred; q++ {
			if !Parallel(pf[q], sf) {
				deps[r] = append(deps[r], granule.ID(q))
			}
		}
	}
	return deps
}

// Verify checks the paper's overlap-correctness condition for a declared
// mapping: let q be any uncompleted current-phase granule and r a successor
// granule enabled after completing exactly the granules the mapping demands
// for r; then PARALLEL(q, r) must hold. Equivalently, every true dependence
// of r on q must be covered by the mapping's requirement set for r.
//
// Verify is exhaustive in nPred x nSucc and meant for tests and for the
// paxrun --verify mode on reduced problem sizes.
func Verify(spec *Spec, pred AccessFn, nPred int, succ AccessFn, nSucc int) error {
	if spec == nil {
		spec = NewNull()
	}
	m, err := spec.Compile(nPred, nSucc)
	if err != nil {
		return err
	}
	if spec.Kind == Null {
		return nil // no overlap declared, nothing to prove
	}
	deps := Conflicts(pred, nPred, succ, nSucc)
	for r := 0; r < nSucc; r++ {
		req := m.requirementSet(granule.ID(r))
		for _, q := range deps[r] {
			if !req[q] {
				return fmt.Errorf(
					"enable: %v mapping unsound: successor granule %d depends on current granule %d, which the mapping does not require",
					spec.Kind, r, q)
			}
		}
	}
	return nil
}

// requirementSet returns the set of current granules whose completion the
// mapping demands before enabling successor granule r.
func (m *Map) requirementSet(r granule.ID) map[granule.ID]bool {
	req := make(map[granule.ID]bool)
	switch m.kind {
	case Universal:
		// empty
	case Identity:
		if int(r) < m.nPred {
			req[r] = true
		}
	case ForwardIndirect:
		for p := 0; p < m.nPred; p++ {
			if slices.Contains(m.row(granule.ID(p)), r) {
				req[granule.ID(p)] = true
			}
		}
	case ReverseIndirect, Seam:
		for _, p := range m.requirements(r) {
			req[p] = true
		}
	}
	return req
}

// Infer classifies the enablement relation of a phase pair from footprints
// alone, choosing the simplest sound mapping kind:
//
//   - Universal when no successor granule depends on any current granule;
//   - Identity when every dependence is of the form r -> r;
//   - ForwardIndirect when every current granule conflicts with at most one
//     successor granule (a single-valued forward map exists);
//   - ReverseIndirect otherwise.
//
// Null cannot be inferred from footprints: it arises from serial actions
// and decisions between phases, which the caller must declare.
func Infer(pred AccessFn, nPred int, succ AccessFn, nSucc int) (Kind, *Spec) {
	deps := Conflicts(pred, nPred, succ, nSucc)

	total := 0
	identityOnly := true
	for r, qs := range deps {
		total += len(qs)
		for _, q := range qs {
			if int(q) != r {
				identityOnly = false
			}
		}
	}
	if total == 0 {
		return Universal, NewUniversal()
	}
	if identityOnly {
		return Identity, NewIdentity()
	}

	// Forward map: invert deps to predecessor -> successors.
	bySource := make([][]granule.ID, nPred)
	for r, qs := range deps {
		for _, q := range qs {
			bySource[q] = append(bySource[q], granule.ID(r))
		}
	}
	functional := true
	for _, succs := range bySource {
		if len(succs) > 1 {
			functional = false
			break
		}
	}
	if functional {
		fwd := make([][]granule.ID, nPred)
		for p := range bySource {
			fwd[p] = bySource[p]
		}
		return ForwardIndirect, NewForward(func(p granule.ID) []granule.ID {
			if int(p) >= len(fwd) {
				return nil
			}
			return fwd[p]
		})
	}

	reqs := make([][]granule.ID, nSucc)
	for r := range deps {
		reqs[r] = append([]granule.ID(nil), deps[r]...)
		sort.Slice(reqs[r], func(i, j int) bool { return reqs[r][i] < reqs[r][j] })
	}
	return ReverseIndirect, NewReverse(func(r granule.ID) []granule.ID {
		if int(r) >= len(reqs) {
			return nil
		}
		return reqs[r]
	})
}
