package rundown_test

import (
	"testing"

	rundown "repro"
)

// TestFacadeQuickstart exercises the package-level API the way the README
// quickstart does: declare two identity-mapped phases with real work, run
// them overlapped on goroutines, and check the results.
func TestFacadeQuickstart(t *testing.T) {
	const n = 1024
	src := make([]float64, n)
	dst := make([]float64, n)
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name: "produce", Granules: n,
			Work:   func(g rundown.GranuleID) { src[g] = float64(g) * 0.5 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "consume", Granules: n,
			Work: func(g rundown.GranuleID) { dst[g] = src[g] + 1 },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := runExec(t, prog,
		rundown.Options{Grain: 32, Overlap: true, Costs: rundown.DefaultCosts()},
		rundown.WithWorkers(4))
	if rep.Tasks == 0 {
		t.Error("no tasks recorded")
	}
	for i := range dst {
		if dst[i] != float64(i)*0.5+1 {
			t.Fatalf("dst[%d] = %v", i, dst[i])
		}
	}
}

func TestFacadeVirtualRun(t *testing.T) {
	prog, err := rundown.Chain(rundown.KindUniversal, 2, 64, rundown.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runVirtual(t, prog,
		rundown.Options{Grain: 4, Overlap: true, Costs: rundown.FreeCosts()},
		rundown.SimConfig{Procs: 8, Mgmt: rundown.Dedicated})
	if res.Makespan != 16 { // 128 unit granules / 8 procs
		t.Errorf("makespan = %d, want 16", res.Makespan)
	}
}

func TestFacadeMappings(t *testing.T) {
	if rundown.Null().Kind != rundown.KindNull ||
		rundown.Universal().Kind != rundown.KindUniversal ||
		rundown.Identity().Kind != rundown.KindIdentity {
		t.Error("mapping constructors broken")
	}
	fwd := rundown.ForwardIMAP([]rundown.GranuleID{1, 0})
	if fwd.Kind != rundown.KindForward {
		t.Error("forward constructor broken")
	}
	rev := rundown.Reverse(func(r rundown.GranuleID) []rundown.GranuleID {
		return []rundown.GranuleID{r}
	})
	if rev.Kind != rundown.KindReverse {
		t.Error("reverse constructor broken")
	}
}

func TestFacadeVerifyInfer(t *testing.T) {
	pred := func(g rundown.GranuleID) rundown.Footprint {
		return rundown.Footprint{Writes: []rundown.Effect{{Var: "A", Idx: int(g)}}}
	}
	succ := func(g rundown.GranuleID) rundown.Footprint {
		return rundown.Footprint{
			Reads:  []rundown.Effect{{Var: "A", Idx: int(g)}},
			Writes: []rundown.Effect{{Var: "B", Idx: int(g)}},
		}
	}
	kind, m := rundown.Infer(pred, 8, succ, 8)
	if kind != rundown.KindIdentity {
		t.Fatalf("inferred %v", kind)
	}
	if err := rundown.Verify(m, pred, 8, succ, 8); err != nil {
		t.Fatal(err)
	}
	if err := rundown.Verify(rundown.Universal(), pred, 8, succ, 8); err == nil {
		t.Error("unsound universal accepted")
	}
	a := rundown.Footprint{Writes: []rundown.Effect{{Var: "X", Idx: 0}}}
	b := rundown.Footprint{Reads: []rundown.Effect{{Var: "X", Idx: 0}}}
	if rundown.Parallel(a, b) {
		t.Error("conflict not detected")
	}
}

func TestFacadePax(t *testing.T) {
	f, err := rundown.ParsePax(`
DEFINE PHASE a GRANULES 8 ENABLE [ b/MAPPING=IDENTITY ]
DEFINE PHASE b GRANULES 8
DISPATCH a
DISPATCH b
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := rundown.CheckPax(f); err != nil {
		t.Fatal(err)
	}
	res, err := rundown.InterpretPax(f, &rundown.PaxRegistry{}, rundown.PaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Phases) != 2 {
		t.Fatalf("phases = %d", len(res.Program.Phases))
	}
	runVirtual(t, res.Program,
		rundown.Options{Grain: 2, Overlap: true, Costs: rundown.DefaultCosts()},
		rundown.SimConfig{Procs: 4, Mgmt: rundown.Dedicated})
}

func TestFacadeCasper(t *testing.T) {
	if len(rundown.Census()) != 22 {
		t.Error("census size wrong")
	}
	prog, err := rundown.CasperProgram(rundown.CasperConfig{GranulesPerLine: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Phases) != 22 {
		t.Error("casper program size wrong")
	}
	ic, err := rundown.NewIdealCheckerboard(1024)
	if err != nil {
		t.Fatal(err)
	}
	each, left, idle := ic.Leftover(1000)
	if each != 524 || left != 288 || idle != 712 {
		t.Errorf("paper arithmetic = %d/%d/%d", each, left, idle)
	}
	p, err := rundown.NewPipeline(64)
	if err != nil {
		t.Fatal(err)
	}
	p.RunSerial()
	g, err := rundown.NewGrid(8, 1.0, rundown.HotEdgeBoundary(8))
	if err != nil {
		t.Fatal(err)
	}
	if g.ColorCount(0)+g.ColorCount(1) != 36 {
		t.Error("grid interior wrong")
	}
}
