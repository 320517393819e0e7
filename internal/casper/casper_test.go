package casper

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// runOnPool runs prog to completion as the one job of a fresh pool of
// workers goroutines under the serial manager.
func runOnPool(tb testing.TB, prog *core.Program, opt core.Options, workers int) {
	tb.Helper()
	p, err := tenant.NewPool(tenant.Config{Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Submit(prog, opt, tenant.JobConfig{}); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		tb.Fatal(err)
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(2, 1.0, nil); err == nil {
		t.Error("grid side 2 accepted")
	}
	g, err := NewGrid(5, 1.0, HotEdgeBoundary(5))
	if err != nil {
		t.Fatal(err)
	}
	// 3x3 interior = 9 points, colours split 5/4 or 4/5.
	if g.ColorCount(0)+g.ColorCount(1) != 9 {
		t.Fatalf("interior count = %d", g.ColorCount(0)+g.ColorCount(1))
	}
	// Boundary condition applied.
	if g.Phi[0*5+2] != 1.0 || g.Phi[4*5+2] != 0.0 {
		t.Error("boundary not applied")
	}
}

func TestGridPositionIndexRoundTrip(t *testing.T) {
	g, _ := NewGrid(8, 1.0, nil)
	for c := 0; c < 2; c++ {
		for k := 0; k < g.ColorCount(c); k++ {
			p := g.Position(c, granule.ID(k))
			i, j := p/8, p%8
			if i == 0 || j == 0 || i == 7 || j == 7 {
				t.Fatalf("colour %d granule %d is a boundary point (%d,%d)", c, k, i, j)
			}
			if (i+j)%2 != c {
				t.Fatalf("colour %d granule %d has parity %d", c, k, (i+j)%2)
			}
			if g.index[p] != int32(k) {
				t.Fatalf("index inverse broken at %d", p)
			}
		}
	}
}

// TestSeamSpecSound verifies the seam mapping against the declared SOR
// footprints with the paper's PARALLEL predicate.
func TestSeamSpecSound(t *testing.T) {
	g, _ := NewGrid(8, 1.0, HotEdgeBoundary(8))
	for c := 0; c < 2; c++ {
		spec := g.SeamSpec(c)
		err := enable.Verify(spec, g.Footprint(c), g.ColorCount(c), g.Footprint(1-c), g.ColorCount(1-c))
		if err != nil {
			t.Errorf("seam %d->%d unsound: %v", c, 1-c, err)
		}
	}
}

// TestSORParallelMatchesSerial: the overlapped parallel SOR must produce
// bit-identical results to the serial reference.
func TestSORParallelMatchesSerial(t *testing.T) {
	const n, sweeps = 24, 5
	ref, err := SolveSerial(n, 1.2, HotEdgeBoundary(n), sweeps)
	if err != nil {
		t.Fatal(err)
	}
	for _, seam := range []bool{false, true} {
		g, _ := NewGrid(n, 1.2, HotEdgeBoundary(n))
		prog, err := g.SORProgram(sweeps, seam)
		if err != nil {
			t.Fatal(err)
		}
		runOnPool(t, prog, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, 6)
		for p := range ref.Phi {
			if g.Phi[p] != ref.Phi[p] {
				t.Fatalf("seam=%v: phi[%d] = %v, want %v", seam, p, g.Phi[p], ref.Phi[p])
			}
		}
	}
}

func TestSORConverges(t *testing.T) {
	g, _ := NewGrid(16, 1.5, HotEdgeBoundary(16))
	r0 := g.Residual()
	prog, _ := g.SORProgram(30, true)
	runOnPool(t, prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()}, 4)
	if r := g.Residual(); r >= r0/10 {
		t.Errorf("residual %v did not drop an order of magnitude from %v", r, r0)
	}
}

func TestSORProgramValidation(t *testing.T) {
	g, _ := NewGrid(8, 1.0, nil)
	if _, err := g.SORProgram(0, true); err == nil {
		t.Error("zero sweeps accepted")
	}
}

func TestIdealCheckerboardPaperArithmetic(t *testing.T) {
	ic, err := NewIdealCheckerboard(1024)
	if err != nil {
		t.Fatal(err)
	}
	if g := ic.PhaseGranules(); g != 524288 {
		t.Fatalf("phase granules = %d, want 524288 (paper: 2**20 points, half per phase)", g)
	}
	each, left, idle := ic.Leftover(1000)
	if each != 524 || left != 288 || idle != 712 {
		t.Fatalf("leftover arithmetic = (%d, %d, %d), want (524, 288, 712)", each, left, idle)
	}
	// Perfect division leaves no idle processors.
	if _, left, idle := ic.Leftover(1024); left != 0 || idle != 0 {
		t.Error("perfect division should have no leftover")
	}
	if _, err := NewIdealCheckerboard(7); err == nil {
		t.Error("odd side accepted")
	}
}

func TestIdealSeamSpecBuilds(t *testing.T) {
	ic, _ := NewIdealCheckerboard(8)
	for c := 0; c < 2; c++ {
		spec := ic.SeamSpec(c)
		tab, err := enable.Build(spec, ic.PhaseGranules(), ic.PhaseGranules())
		if err != nil {
			t.Fatalf("colour %d: %v", c, err)
		}
		// Torus: every successor point has exactly 4 requirements, so
		// nothing is ready at start and the map has 4 entries per point.
		if n := tab.ReadyAtStart().Count(granule.Span(ic.PhaseGranules())); n != 0 {
			t.Errorf("colour %d: %d ready at start", c, n)
		}
		if tab.BuildCost() != int64(4*ic.PhaseGranules()) {
			t.Errorf("colour %d: build cost %d", c, tab.BuildCost())
		}
	}
}

func TestIdealPositionRoundTrip(t *testing.T) {
	ic, _ := NewIdealCheckerboard(8)
	for c := 0; c < 2; c++ {
		for k := granule.ID(0); int(k) < ic.PhaseGranules(); k++ {
			i, j := ic.position(c, k)
			if (i+j)%2 != c {
				t.Fatalf("colour %d granule %d parity broken at (%d,%d)", c, k, i, j)
			}
			if ic.indexOf(c, i, j) != k {
				t.Fatalf("round trip broken for colour %d granule %d", c, k)
			}
		}
	}
}

func TestIdealOverlapReducesRundown(t *testing.T) {
	ic, _ := NewIdealCheckerboard(16) // 128 granules per phase
	barrierProg, _ := ic.Program(2, false)
	seamProg, _ := ic.Program(2, true)
	// 12 processors: 128 = 10*12 + 8, so each barrier phase strands 4
	// processors in its final wave.
	barrier, err := sim.Run(barrierProg,
		core.Options{Grain: 1, Costs: core.FreeCosts()},
		sim.Config{Procs: 12, Mgmt: sim.Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	seam, err := sim.Run(seamProg,
		core.Options{Grain: 1, Overlap: true, Costs: core.FreeCosts()},
		sim.Config{Procs: 12, Mgmt: sim.Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if seam.Makespan >= barrier.Makespan {
		t.Errorf("seam overlap makespan %d >= barrier %d", seam.Makespan, barrier.Makespan)
	}
	if seam.IdleUnits >= barrier.IdleUnits {
		t.Errorf("seam overlap idle %d >= barrier idle %d", seam.IdleUnits, barrier.IdleUnits)
	}
}

func TestPipelineSerialVsParallel(t *testing.T) {
	ref, err := NewPipeline(256)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSerial()

	for _, overlap := range []bool{false, true} {
		p, _ := NewPipeline(256)
		prog, err := p.Program()
		if err != nil {
			t.Fatal(err)
		}
		runOnPool(t, prog, core.Options{Grain: 8, Overlap: overlap, Elevate: true, Costs: core.DefaultCosts()}, 6)
		for i := range ref.Out {
			if p.Out[i] != ref.Out[i] {
				t.Fatalf("overlap=%v: out[%d] = %v, want %v", overlap, i, p.Out[i], ref.Out[i])
			}
		}
		if p.Norm != ref.Norm {
			t.Fatalf("overlap=%v: norm %v != %v", overlap, p.Norm, ref.Norm)
		}
	}
}

// TestPipelineDeclaredMappingsSound verifies every declared adjacent
// mapping against the footprints.
func TestPipelineDeclaredMappingsSound(t *testing.T) {
	p, _ := NewPipeline(64)
	prog, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	fps := p.Footprints()
	for i := 0; i < len(prog.Phases)-1; i++ {
		spec := prog.Phases[i].Enable
		err := enable.Verify(spec, fps[i], prog.Phases[i].Granules, fps[i+1], prog.Phases[i+1].Granules)
		if err != nil {
			t.Errorf("pair %d (%s -> %s): %v", i, prog.Phases[i].Name, prog.Phases[i+1].Name, err)
		}
	}
}

// TestPipelineInferredKinds classifies the pipeline's adjacent pairs from
// footprints alone and checks the expected census kinds.
func TestPipelineInferredKinds(t *testing.T) {
	p, _ := NewPipeline(64)
	prog, _ := p.Program()
	fps := p.Footprints()
	want := []enable.Kind{
		enable.Universal,       // power-compression -> interp-matrix
		enable.Identity,        // interp-matrix -> smooth
		enable.ReverseIndirect, // smooth -> residual-gather
		enable.ReverseIndirect, // gather -> scatter (data says reverse; serial action forces null)
		enable.ForwardIndirect, // scatter -> final
	}
	for i := 0; i < len(prog.Phases)-1; i++ {
		kind, _ := enable.Infer(fps[i], prog.Phases[i].Granules, fps[i+1], prog.Phases[i+1].Granules)
		if kind != want[i] {
			t.Errorf("pair %d (%s -> %s): inferred %v, want %v",
				i, prog.Phases[i].Name, prog.Phases[i+1].Name, kind, want[i])
		}
	}
	// The declared program downgrades gather -> scatter to null because a
	// serial decision intervenes (the paper's observed null cause).
	if prog.Phases[3].Enable != nil {
		t.Error("gather phase should declare a null mapping")
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(3); err == nil {
		t.Error("odd/small n accepted")
	}
	p, _ := NewPipeline(16)
	// FMap is a permutation.
	seen := make(map[granule.ID]bool)
	for _, v := range p.FMap {
		if seen[v] {
			t.Fatal("FMap not a permutation")
		}
		seen[v] = true
	}
}

func BenchmarkSORSweepExecutive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := NewGrid(128, 1.2, HotEdgeBoundary(128))
		prog, _ := g.SORProgram(2, true)
		runOnPool(b, prog, core.Options{Grain: 256, Overlap: true, Costs: core.DefaultCosts()}, 8)
	}
}
