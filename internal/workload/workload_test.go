package workload

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/sim"
)

// TestCensusMatchesPaper pins the census to the paper's published numbers.
// This is experiment E1's ground truth.
func TestCensusMatchesPaper(t *testing.T) {
	phases, lines, totalPhases, totalLines := CensusTotals(Census())
	if totalPhases != 22 {
		t.Fatalf("total phases = %d, want 22", totalPhases)
	}
	if totalLines != 1188 {
		t.Fatalf("total lines = %d, want 1188", totalLines)
	}
	wantPhases := map[enable.Kind]int{
		enable.Universal:       6,
		enable.Identity:        9,
		enable.Null:            4,
		enable.ReverseIndirect: 2,
		enable.ForwardIndirect: 1,
	}
	wantLines := map[enable.Kind]int{
		enable.Universal:       266,
		enable.Identity:        551,
		enable.Null:            262,
		enable.ReverseIndirect: 78,
		enable.ForwardIndirect: 31,
	}
	for k, want := range wantPhases {
		if phases[k] != want {
			t.Errorf("%v phases = %d, want %d", k, phases[k], want)
		}
	}
	for k, want := range wantLines {
		if lines[k] != want {
			t.Errorf("%v lines = %d, want %d", k, lines[k], want)
		}
	}
	// The paper's headline fractions.
	simplePhases := phases[enable.Universal] + phases[enable.Identity]
	if pct := 100 * simplePhases / totalPhases; pct != 68 {
		t.Errorf("simple-overlap phase percentage = %d, want 68", pct)
	}
	simpleLines := lines[enable.Universal] + lines[enable.Identity]
	if pct := 100 * simpleLines / totalLines; pct != 68 {
		t.Errorf("simple-overlap line percentage = %d, want 68", pct)
	}
	overlappable := totalPhases - phases[enable.Null]
	if pct := 100 * overlappable / totalPhases; pct != 81 { // 18/22
		t.Errorf("overlappable phase percentage = %d, want 81", pct)
	}
}

func TestCensusNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Census() {
		if seen[c.Name] {
			t.Fatalf("duplicate census name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestCasperProgramBuilds(t *testing.T) {
	prog, err := CasperProgram(CasperConfig{GranulesPerLine: 2, SerialCost: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Phases) != 22 {
		t.Fatalf("phases = %d", len(prog.Phases))
	}
	// Lines metadata preserved for census aggregation.
	total := 0
	for _, ph := range prog.Phases {
		total += ph.Lines
	}
	if total != 1188 {
		t.Errorf("program lines = %d, want 1188", total)
	}
}

func TestCasperProgramRuns(t *testing.T) {
	prog, err := CasperProgram(CasperConfig{GranulesPerLine: 1, SerialCost: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), []sim.JobSpec{{Prog: prog,
		Opt: core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}}},
		sim.Config{Procs: 8, Mgmt: sim.Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeUnits != int64(prog.TotalGranules()) {
		t.Errorf("compute = %d, want %d", res.ComputeUnits, prog.TotalGranules())
	}
}

func TestCasperProgramCycles(t *testing.T) {
	prog, err := CasperProgram(CasperConfig{GranulesPerLine: 1, Cycles: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Phases) != 44 {
		t.Fatalf("phases = %d, want 44", len(prog.Phases))
	}
	// Cycle boundary: phase 21 (checkpoint, null kind) must not map into
	// the next cycle's first phase.
	if prog.Phases[21].Enable != nil {
		t.Error("cycle-boundary phase should have null mapping")
	}
}

func TestCostModelsDeterministic(t *testing.T) {
	u := UniformCost(2, 9, 77)
	for g := granule.ID(0); g < 100; g++ {
		c1, c2 := u(g), u(g)
		if c1 != c2 {
			t.Fatal("UniformCost not deterministic")
		}
		if c1 < 2 || c1 > 9 {
			t.Fatalf("UniformCost(%d) = %d out of range", g, c1)
		}
	}
	// Swapped bounds are normalized.
	s := UniformCost(9, 2, 77)
	if s(3) != u(3) {
		t.Error("swapped bounds differ")
	}
}

func TestBimodalCost(t *testing.T) {
	b := BimodalCost(1, 100, 0.9, 5)
	fast, slow := 0, 0
	for g := granule.ID(0); g < 1000; g++ {
		switch b(g) {
		case 1:
			fast++
		case 100:
			slow++
		default:
			t.Fatal("unexpected bimodal value")
		}
	}
	if fast < 800 || slow < 20 {
		t.Errorf("bimodal split fast=%d slow=%d implausible", fast, slow)
	}
}

func TestConditionalSkip(t *testing.T) {
	cs := ConditionalSkip(50, 0.5, 9)
	skipped := 0
	for g := granule.ID(0); g < 1000; g++ {
		c := cs(g)
		if c == 1 {
			skipped++
		} else if c != 50 {
			t.Fatal("unexpected conditional value")
		}
	}
	if skipped < 350 || skipped > 650 {
		t.Errorf("skip count %d implausible for p=0.5", skipped)
	}
}

func TestScaleCost(t *testing.T) {
	sc := ScaleCost(FixedCost(3), 4)
	if sc(0) != 12 {
		t.Errorf("ScaleCost = %d", sc(0))
	}
	unit := ScaleCost(nil, 7)
	if unit(5) != 7 {
		t.Errorf("ScaleCost(nil) = %d", unit(5))
	}
	if UnitCost() != nil {
		t.Error("UnitCost should be nil (scheduler default)")
	}
	if FixedCost(5)(1) != 5 {
		t.Error("FixedCost wrong")
	}
}

func TestRandomIMap(t *testing.T) {
	m := RandomIMap(100, 10, 3)
	if len(m) != 100 {
		t.Fatal("length wrong")
	}
	for _, v := range m {
		if v < 0 || v >= 10 {
			t.Fatalf("value %d out of range", v)
		}
	}
	m2 := RandomIMap(100, 10, 3)
	for i := range m {
		if m[i] != m2[i] {
			t.Fatal("not deterministic")
		}
	}
	z := RandomIMap(4, 0, 1) // limit clamped to 1
	for _, v := range z {
		if v != 0 {
			t.Fatal("clamped limit broken")
		}
	}
}

func TestChainAllKinds(t *testing.T) {
	for _, k := range enable.Kinds() {
		prog, err := Chain(k, 3, 24, UnitCost(), 11)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		res, err := sim.Run(context.Background(), []sim.JobSpec{{Prog: prog,
			Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}}},
			sim.Config{Procs: 4, Mgmt: sim.Dedicated})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.ComputeUnits != 72 {
			t.Fatalf("%v: compute = %d", k, res.ComputeUnits)
		}
	}
	if _, err := Chain(enable.Universal, 0, 4, nil, 0); err == nil {
		t.Error("zero-phase chain accepted")
	}
	if _, err := Chain(enable.Kind(99), 2, 4, nil, 0); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestStockMappingsReturnViews: the builders' mapping functions hand out
// windows of arrays made once — evaluating one allocates nothing — and the
// seam stencil is still r-1, r, r+1 clipped to the phase, with no granule
// named twice (a duplicate would change what successor planning scans).
func TestStockMappingsReturnViews(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		seam := seamNeighbours(n)
		for r := 0; r < n; r++ {
			var want []granule.ID
			for p := r - 1; p <= r+1; p++ {
				if p >= 0 && p < n {
					want = append(want, granule.ID(p))
				}
			}
			if got := seam(granule.ID(r)); !slices.Equal(got, want) {
				t.Errorf("seam(%d) over %d granules = %v, want %v", r, n, got, want)
			}
		}
	}
	for _, kind := range []enable.Kind{enable.ForwardIndirect, enable.ReverseIndirect, enable.Seam} {
		prog, err := Chain(kind, 2, 64, nil, 5)
		if err != nil {
			t.Fatal(err)
		}
		spec := prog.Phases[0].Enable
		f := spec.Requires
		if kind == enable.ForwardIndirect {
			f = enable.RequiresFn(spec.Forward)
		}
		if allocs := testing.AllocsPerRun(100, func() { f(17) }); allocs != 0 {
			t.Errorf("%v chain: one evaluation of the mapping function allocates %.0f objects", kind, allocs)
		}
	}
}
