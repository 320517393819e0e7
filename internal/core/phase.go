package core

import (
	"fmt"

	"repro/internal/enable"
	"repro/internal/granule"
)

// CostFn gives the virtual execution cost of one granule. The simulator
// sums it over a task's granules to obtain the task's duration. A nil
// CostFn means unit cost per granule.
type CostFn func(g granule.ID) Cost

// WorkFn performs the real computation of one granule; used by the
// goroutine executive. A nil WorkFn is a no-op (pure scheduling studies).
type WorkFn func(g granule.ID)

// Phase describes one parallel computational phase of a program.
type Phase struct {
	// Name identifies the phase; it must be unique within a Program and
	// is the name used by PAX-language DEFINE PHASE / DISPATCH / ENABLE.
	Name string
	// Granules is the number of indivisible parallel computations in the
	// phase. Must be >= 0; a zero-granule phase completes immediately.
	Granules int
	// Cost gives per-granule virtual cost (simulation); nil = 1 unit.
	Cost CostFn
	// Work performs the real per-granule computation (executive); may be nil.
	Work WorkFn
	// Enable declares the enablement mapping from THIS phase to the NEXT
	// phase in the program. nil means Null (no overlap possible).
	Enable *enable.Spec
	// SerialBefore, if non-nil, is a serial action that must run after
	// the predecessor phase completes and before this phase begins. Its
	// presence forces the predecessor's mapping to Null — this is the
	// paper's observed cause of all null mappings in CASPER ("serial
	// actions and decisions had to occur between the phases").
	SerialBefore func()
	// SerialCost is the virtual cost of SerialBefore, charged to the
	// management resource between the phases.
	SerialCost Cost
	// Lines is the phase's parallel source-line weight. It has no effect
	// on scheduling; the census experiment (E1) aggregates it exactly as
	// the paper reports lines of parallel code per mapping class.
	Lines int
}

// EnableKind returns the declared mapping kind (Null when no spec).
func (p *Phase) EnableKind() enable.Kind {
	if p.Enable == nil {
		return enable.Null
	}
	return p.Enable.Kind
}

// GranuleCost returns the virtual cost of granule g.
func (p *Phase) GranuleCost(g granule.ID) Cost {
	if p.Cost == nil {
		return 1
	}
	return p.Cost(g)
}

// TotalCost returns the summed virtual cost of all granules of the phase:
// for a unit-cost phase (nil Cost) its granule count, with no walk.
func (p *Phase) TotalCost() Cost {
	if p.Cost == nil {
		return Cost(p.Granules)
	}
	var sum Cost
	for g := 0; g < p.Granules; g++ {
		sum += p.Cost(granule.ID(g))
	}
	return sum
}

// Program is a sequence of phases dispatched in order, with each phase's
// Enable spec describing its relation to the following phase. (The paper's
// branch-dependent dispatch is handled one level up: the PAX-language
// interpreter resolves branches and lowers the executed path into a linear
// Program, marking unresolvable successors as Null.)
type Program struct {
	Phases []*Phase
}

// NewProgram builds a program from phases and validates it.
func NewProgram(phases ...*Phase) (*Program, error) {
	p := &Program{Phases: phases}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the program's static well-formedness: unique names,
// granule counts in 0..2³¹−1, mapping specs that stay in range, and the
// serial-action/null-mapping consistency rule. Checking a mapping spec is
// compiling it (enable.Spec.Compile), which happens once per program: a
// second Validate, or a New, of the same program calls no mapping function.
func (p *Program) Validate() error {
	_, err := p.compile()
	return err
}

// compile validates the program and returns, per phase, the compiled
// enablement map to its successor (nil where the mapping is null).
func (p *Program) compile() ([]*enable.Map, error) {
	if len(p.Phases) == 0 {
		return nil, fmt.Errorf("core: program has no phases")
	}
	maps := make([]*enable.Map, len(p.Phases))
	seen := make(map[string]bool, len(p.Phases))
	for i, ph := range p.Phases {
		if ph == nil {
			return nil, fmt.Errorf("core: phase %d is nil", i)
		}
		if ph.Name == "" {
			return nil, fmt.Errorf("core: phase %d has empty name", i)
		}
		if seen[ph.Name] {
			return nil, fmt.Errorf("core: duplicate phase name %q", ph.Name)
		}
		seen[ph.Name] = true
		if ph.Granules < 0 || ph.Granules > maxGranules {
			return nil, fmt.Errorf("core: phase %q has %d granules, want 0..%d", ph.Name, ph.Granules, maxGranules)
		}
		if ph.SerialCost < 0 {
			return nil, fmt.Errorf("core: phase %q has negative serial cost", ph.Name)
		}
		if ph.EnableKind() == enable.Null {
			continue
		}
		if i+1 == len(p.Phases) {
			return nil, fmt.Errorf("core: final phase %q declares a successor mapping", ph.Name)
		}
		next := p.Phases[i+1]
		if next == nil {
			continue // reported on its own turn
		}
		if next.SerialBefore != nil || next.SerialCost > 0 {
			return nil, fmt.Errorf(
				"core: phase %q declares %v mapping but successor %q requires a serial action; the mapping must be null",
				ph.Name, ph.Enable.Kind, next.Name)
		}
		m, err := ph.Enable.Compile(ph.Granules, next.Granules)
		if err != nil {
			return nil, fmt.Errorf("core: phase %q -> %q: %w", ph.Name, next.Name, err)
		}
		maps[i] = m
	}
	return maps, nil
}

// TotalGranules sums granule counts across phases.
func (p *Program) TotalGranules() int {
	n := 0
	for _, ph := range p.Phases {
		n += ph.Granules
	}
	return n
}

// TotalCost sums virtual granule costs across phases (excluding serial and
// management costs).
func (p *Program) TotalCost() Cost {
	var sum Cost
	for _, ph := range p.Phases {
		sum += ph.TotalCost()
	}
	return sum
}
