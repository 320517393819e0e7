package rundown_test

import (
	"testing"

	rundown "repro"
)

// TestIntegrationPaxToExecutive drives the whole stack end to end: a
// PAX-language control program with a loop and a branch-independent ENABLE
// clause is interpreted into a phase program whose phases are bound to real
// Go work functions, executed overlapped on goroutine workers, and the
// numerical result is checked against a serial computation.
func TestIntegrationPaxToExecutive(t *testing.T) {
	const n = 1024
	const sweeps = 3
	a := make([]float64, n)
	b := make([]float64, n)

	src := `
DEFINE PHASE smooth GRANULES 1024 ENABLE [ scale/MAPPING=IDENTITY ]
DEFINE PHASE scale  GRANULES 1024 ENABLE [ smooth/MAPPING=IDENTITY ]
SET i = 0
top:
DISPATCH smooth
DISPATCH scale
SET i = i + 1
IF (i .LT. 3) THEN GO TO top
`
	reg := &rundown.PaxRegistry{
		Impls: map[string]rundown.PaxPhaseImpl{
			"smooth": {Work: func(g rundown.GranuleID) { a[g] = a[g]*0.5 + float64(g) }},
			"scale":  {Work: func(g rundown.GranuleID) { b[g] = a[g] * 2 }},
		},
	}

	file, err := rundown.ParsePax(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rundown.InterpretPax(file, reg, rundown.PaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Phases) != 2*sweeps {
		t.Fatalf("phases = %d, want %d", len(res.Program.Phases), 2*sweeps)
	}

	rep := runExec(t, res.Program,
		rundown.Options{Grain: 32, Overlap: true, Costs: rundown.DefaultCosts()},
		rundown.WithWorkers(6))
	if rep.Tasks == 0 {
		t.Fatal("no tasks executed")
	}

	// Serial reference.
	ra := make([]float64, n)
	rb := make([]float64, n)
	for s := 0; s < sweeps; s++ {
		for g := 0; g < n; g++ {
			ra[g] = ra[g]*0.5 + float64(g)
		}
		for g := 0; g < n; g++ {
			rb[g] = ra[g] * 2
		}
	}
	for g := 0; g < n; g++ {
		if a[g] != ra[g] || b[g] != rb[g] {
			t.Fatalf("diverged at %d: a=%v/%v b=%v/%v", g, a[g], ra[g], b[g], rb[g])
		}
	}
}

// TestIntegrationSimExecutiveAgree runs the same program through both
// drivers and checks that they agree on the schedulable-work totals (the
// two drivers share one scheduler state machine, so operation counts that
// do not depend on timing must match exactly).
func TestIntegrationSimExecutiveAgree(t *testing.T) {
	build := func() *rundown.Program {
		prog, err := rundown.Chain(rundown.KindIdentity, 3, 512, rundown.UnitCost(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	opt := rundown.Options{
		Grain: 16, Overlap: true, Split: rundown.SplitPre,
		Costs: rundown.DefaultCosts(),
	}
	// Pre-splitting makes the task partition deterministic regardless of
	// timing, so both drivers must dispatch exactly the same task count.
	simRes := runVirtual(t, build(), opt, rundown.SimConfig{Procs: 5, Mgmt: rundown.Dedicated})
	execRep := runExec(t, build(), opt, rundown.WithWorkers(4))
	if simRes.Sched.Dispatches != execRep.Sched.Dispatches {
		t.Errorf("dispatch counts differ: sim %d vs executive %d",
			simRes.Sched.Dispatches, execRep.Sched.Dispatches)
	}
	if simRes.Sched.Completions != execRep.Sched.Completions {
		t.Errorf("completion counts differ: sim %d vs executive %d",
			simRes.Sched.Completions, execRep.Sched.Completions)
	}
	if simRes.Sched.TableBuilds != execRep.Sched.TableBuilds {
		t.Errorf("table builds differ: sim %d vs executive %d",
			simRes.Sched.TableBuilds, execRep.Sched.TableBuilds)
	}
}

// TestIntegrationAsyncSimExecutiveAgree is the async analogue: the
// simulator's Async model (dedicated server + ready-buffer) and the real
// AsyncManager (dedicated management goroutine) must dispatch the same
// pre-split task partition — the virtual-time pricing and the hardware
// realization describe one architecture.
func TestIntegrationAsyncSimExecutiveAgree(t *testing.T) {
	build := func() *rundown.Program {
		prog, err := rundown.Chain(rundown.KindIdentity, 3, 512, rundown.UnitCost(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	opt := rundown.Options{
		Grain: 16, Overlap: true, Split: rundown.SplitPre,
		Costs: rundown.DefaultCosts(),
	}
	simRes := runVirtual(t, build(), opt, rundown.SimConfig{Procs: 4, Mgmt: rundown.AsyncMgmt})
	execRep := runExec(t, build(), opt, rundown.WithWorkers(4), rundown.WithManager(rundown.AsyncManager))
	if simRes.Sched.Dispatches != execRep.Sched.Dispatches {
		t.Errorf("dispatch counts differ: sim %d vs executive %d",
			simRes.Sched.Dispatches, execRep.Sched.Dispatches)
	}
	if simRes.Sched.Completions != execRep.Sched.Completions {
		t.Errorf("completion counts differ: sim %d vs executive %d",
			simRes.Sched.Completions, execRep.Sched.Completions)
	}
}

// TestIntegrationCasperProfileExecutive runs the full 22-phase CASPER
// census profile on the goroutine executive with every phase given real
// (if tiny) work, and checks that every granule executed exactly once.
func TestIntegrationCasperProfileExecutive(t *testing.T) {
	prog, err := rundown.CasperProgram(rundown.CasperConfig{
		GranulesPerLine: 1,
		SerialCost:      10,
		Seed:            99,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([][]int32, len(prog.Phases))
	for i, ph := range prog.Phases {
		counts[i] = make([]int32, ph.Granules)
		idx := i
		ph.Work = func(g rundown.GranuleID) { counts[idx][g]++ }
	}
	runExec(t, prog,
		rundown.Options{Grain: 16, Overlap: true, Elevate: true, Costs: rundown.DefaultCosts()},
		rundown.WithWorkers(8))
	for i := range counts {
		for g, c := range counts[i] {
			if c != 1 {
				t.Fatalf("phase %d granule %d executed %d times", i, g, c)
			}
		}
	}
}

// TestIntegrationInterlockStopsWrongProgram: the language-level interlock
// must stop a control program whose branch dispatches an undeclared
// successor — the user mistake the paper's construct exists to catch.
func TestIntegrationInterlockStopsWrongProgram(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 16
DEFINE PHASE b GRANULES 16
DEFINE PHASE c GRANULES 16
SET choose = 1
DISPATCH a ENABLE/BRANCHINDEPENDENT [ b/MAPPING=IDENTITY ]
IF (choose .EQ. 1) THEN GO TO other
DISPATCH b
GO TO end
other:
DISPATCH c
end:
`
	file, err := rundown.ParsePax(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rundown.InterpretPax(file, nil, rundown.PaxOptions{}); err == nil {
		t.Fatal("interlock failed to catch undeclared successor c")
	}
}
