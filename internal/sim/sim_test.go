package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/workload"
)

func onePhase(t *testing.T, n int) *core.Program {
	t.Helper()
	prog, err := core.NewProgram(&core.Phase{Name: "a", Granules: n})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func twoPhase(t *testing.T, n int, spec *enable.Spec) *core.Program {
	t.Helper()
	prog, err := core.NewProgram(
		&core.Phase{Name: "a", Granules: n, Enable: spec},
		&core.Phase{Name: "b", Granules: n},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSinglePhasePerfectFit(t *testing.T) {
	prog := onePhase(t, 8)
	res, err := Run(prog,
		core.Options{Grain: 1, Costs: core.FreeCosts()},
		Config{Procs: 2, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 4 {
		t.Errorf("makespan = %d, want 4", res.Makespan)
	}
	if res.Utilization != 1.0 {
		t.Errorf("utilization = %v, want 1.0", res.Utilization)
	}
	if res.ComputeUnits != 8 || res.IdleUnits != 0 {
		t.Errorf("compute=%d idle=%d", res.ComputeUnits, res.IdleUnits)
	}
}

func TestSinglePhaseRundownArithmetic(t *testing.T) {
	// 10 unit granules on 4 processors, grain 1: rounds of 4,4,2 — the
	// final round leaves 2 processors idle for 1 unit each.
	prog := onePhase(t, 10)
	res, err := Run(prog,
		core.Options{Grain: 1, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3 {
		t.Errorf("makespan = %d, want 3", res.Makespan)
	}
	if res.IdleUnits != 2 {
		t.Errorf("idle = %d, want 2", res.IdleUnits)
	}
	wantUtil := 10.0 / 12.0
	if diff := res.Utilization - wantUtil; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("utilization = %v, want %v", res.Utilization, wantUtil)
	}
	if res.Phases[0].RundownStart < 0 {
		t.Error("rundown start not detected")
	}
}

func TestOverlapBeatsBarrierIdentity(t *testing.T) {
	barrier, err := Run(twoPhase(t, 10, enable.NewIdentity()),
		core.Options{Grain: 1, Overlap: false, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := Run(twoPhase(t, 10, enable.NewIdentity()),
		core.Options{Grain: 1, Overlap: true, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if barrier.Makespan != 6 {
		t.Errorf("barrier makespan = %d, want 6", barrier.Makespan)
	}
	if overlap.Makespan >= barrier.Makespan {
		t.Errorf("overlap makespan %d not better than barrier %d", overlap.Makespan, barrier.Makespan)
	}
	if overlap.Utilization <= barrier.Utilization {
		t.Errorf("overlap util %v <= barrier util %v", overlap.Utilization, barrier.Utilization)
	}
}

func TestOverlapBeatsBarrierUniversal(t *testing.T) {
	barrier, err := Run(twoPhase(t, 10, enable.NewUniversal()),
		core.Options{Grain: 1, Overlap: false, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := Run(twoPhase(t, 10, enable.NewUniversal()),
		core.Options{Grain: 1, Overlap: true, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	// Two universal phases of 10 on 4 procs = 20 units of independent
	// work: makespan 5, perfect utilization.
	if overlap.Makespan != 5 {
		t.Errorf("overlap makespan = %d, want 5", overlap.Makespan)
	}
	if barrier.Makespan != 6 {
		t.Errorf("barrier makespan = %d, want 6", barrier.Makespan)
	}
}

func TestNullMappingNoGain(t *testing.T) {
	barrier, _ := Run(twoPhase(t, 10, nil),
		core.Options{Grain: 1, Overlap: false, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	overlap, _ := Run(twoPhase(t, 10, nil),
		core.Options{Grain: 1, Overlap: true, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if overlap.Makespan != barrier.Makespan {
		t.Errorf("null mapping changed makespan: %d vs %d", overlap.Makespan, barrier.Makespan)
	}
}

func TestStealsWorkerModel(t *testing.T) {
	prog := onePhase(t, 12)
	res, err := Run(prog,
		core.Options{Grain: 1, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: StealsWorker})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 {
		t.Errorf("workers = %d, want 3 (one stolen by executive)", res.Workers)
	}
	if res.Makespan != 4 { // 12 granules on 3 workers
		t.Errorf("makespan = %d, want 4", res.Makespan)
	}
	if _, err := Run(prog, core.Options{Grain: 1}, Config{Procs: 1, Mgmt: StealsWorker}); err == nil {
		t.Error("StealsWorker with 1 proc should fail")
	}
}

func TestMgmtCostsDelayDispatch(t *testing.T) {
	prog := onePhase(t, 8)
	free, _ := Run(prog,
		core.Options{Grain: 1, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	costly, _ := Run(onePhase(t, 8),
		core.Options{Grain: 1, Costs: core.MgmtCosts{Dispatch: 5, Complete: 5}},
		Config{Procs: 4, Mgmt: Dedicated})
	if costly.Makespan <= free.Makespan {
		t.Errorf("management cost did not extend makespan: %d vs %d", costly.Makespan, free.Makespan)
	}
	if costly.MgmtUnits == 0 || costly.MgmtRatio <= 0 {
		t.Error("management units/ratio not recorded")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		prog := twoPhase(t, 64, enable.NewIdentity())
		res, err := Run(prog,
			core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
			Config{Procs: 8, Mgmt: StealsWorker})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Makespan != b.Makespan || a.ComputeUnits != b.ComputeUnits ||
		a.MgmtUnits != b.MgmtUnits || a.IdleUnits != b.IdleUnits {
		t.Errorf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func TestVariableCostPhases(t *testing.T) {
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "a", Granules: 16,
			Cost:   func(g granule.ID) core.Cost { return core.Cost(1 + int(g)%5) },
			Enable: enable.NewIdentity(),
		},
		&core.Phase{Name: "b", Granules: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog,
		core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	wantCompute := int64(0)
	for g := 0; g < 16; g++ {
		wantCompute += int64(1 + g%5)
	}
	wantCompute += 16 // phase b unit costs
	if res.ComputeUnits != wantCompute {
		t.Errorf("compute = %d, want %d", res.ComputeUnits, wantCompute)
	}
}

func TestSerialActionCharged(t *testing.T) {
	prog, err := core.NewProgram(
		&core.Phase{Name: "a", Granules: 4},
		&core.Phase{Name: "b", Granules: 4, SerialCost: 50},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog,
		core.Options{Grain: 1, Overlap: true, Costs: core.FreeCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialUnits != 50 {
		t.Errorf("serial units = %d, want 50", res.SerialUnits)
	}
	// Serial action gates the second phase: makespan >= 1 + 50 + 1.
	if res.Makespan < 52 {
		t.Errorf("makespan = %d, want >= 52", res.Makespan)
	}
}

func TestAllSchedulerModesComplete(t *testing.T) {
	for _, split := range []core.SplitPolicy{core.SplitDemand, core.SplitPre} {
		for _, succ := range []core.SuccSplitMode{core.SuccSplitInline, core.SuccSplitDeferred} {
			for _, id := range []core.IdentityMode{core.IdentityConflictQueue, core.IdentityTable} {
				prog := twoPhase(t, 40, enable.NewIdentity())
				res, err := Run(prog, core.Options{
					Grain: 3, Overlap: true, Split: split, SuccSplit: succ,
					IdentityVia: id, Costs: core.DefaultCosts(),
				}, Config{Procs: 5, Mgmt: Dedicated})
				if err != nil {
					t.Fatalf("split=%v succ=%v id=%v: %v", split, succ, id, err)
				}
				if res.ComputeUnits != 80 {
					t.Fatalf("split=%v succ=%v id=%v: compute=%d, want 80",
						split, succ, id, res.ComputeUnits)
				}
			}
		}
	}
}

func TestGanttAndCurve(t *testing.T) {
	prog := twoPhase(t, 12, enable.NewUniversal())
	res, err := Run(prog,
		core.Options{Grain: 2, Overlap: true, Costs: core.FreeCosts()},
		Config{Procs: 3, Mgmt: Dedicated, Gantt: true, BucketWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gantt == nil || res.Gantt.End() == 0 {
		t.Fatal("gantt not recorded")
	}
	if s := res.Gantt.Render(40); s == "" {
		t.Fatal("gantt render empty")
	}
	curve := res.Timeline.Curve()
	if len(curve) == 0 {
		t.Fatal("no utilization curve")
	}
	for i, u := range curve {
		if u < 0 || u > 1.0000001 {
			t.Errorf("curve[%d] = %v out of range", i, u)
		}
	}
}

func TestPhaseTraces(t *testing.T) {
	prog := twoPhase(t, 20, enable.NewIdentity())
	res, err := Run(prog,
		core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 4, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Phases {
		if pt.Start < 0 || pt.End <= pt.Start {
			t.Errorf("phase %d window [%d,%d] invalid", i, pt.Start, pt.End)
		}
		if pt.Dispatched == 0 {
			t.Errorf("phase %d has no dispatches", i)
		}
	}
	if res.Phases[1].Start >= res.Phases[0].End {
		t.Error("identity overlap: phase b should start before phase a ends")
	}
	if res.Phases[0].OverlapUnits == 0 {
		t.Error("no overlap compute attributed to phase a's currency")
	}
}

func TestRunawayGuard(t *testing.T) {
	prog := onePhase(t, 100)
	_, err := Run(prog, core.Options{Grain: 1, Costs: core.DefaultCosts()},
		Config{Procs: 2, Mgmt: Dedicated, MaxOps: 3})
	if err == nil {
		t.Fatal("MaxOps guard did not trigger")
	}
}

func TestConfigValidation(t *testing.T) {
	prog := onePhase(t, 4)
	if _, err := Run(prog, core.Options{}, Config{Procs: 0}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestMgmtModelString(t *testing.T) {
	if StealsWorker.String() != "steals-worker" || Dedicated.String() != "dedicated" {
		t.Error("MgmtModel strings wrong")
	}
	if MgmtModel(9).String() == "" {
		t.Error("unknown model string empty")
	}
}

func BenchmarkSimIdentityOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, _ := core.NewProgram(
			&core.Phase{Name: "a", Granules: 8192, Enable: enable.NewIdentity()},
			&core.Phase{Name: "b", Granules: 8192},
		)
		_, err := Run(prog,
			core.Options{Grain: 64, Overlap: true, Costs: core.DefaultCosts()},
			Config{Procs: 64, Mgmt: StealsWorker})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestVirtualChargesUnchanged: a program's enablement relation is compiled
// once, but the modelled executive generates its composite maps on every
// run — the first and the fifth run of one Program are charged the same
// table cost, entries and builds and reach the same makespan, whether the
// maps are built inline or in deferred pieces.
func TestVirtualChargesUnchanged(t *testing.T) {
	for _, inline := range []bool{false, true} {
		prog, err := workload.CasperProgram(workload.CasperConfig{
			GranulesPerLine: 2, Cycles: 2, Seed: 11, SerialCost: 25,
			Cost: workload.UniformCost(50, 200, 11),
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{
			Grain: 4, Overlap: true, Elevate: true, SubsetSize: 32,
			InlineMaps: inline, Costs: core.DefaultCosts(),
		}
		var first *Result
		for run := 1; run <= 5; run++ {
			res, err := Run(prog, opt, Config{Procs: 16, Mgmt: StealsWorker})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sched.TableBuilds == 0 || res.Sched.TableCost == 0 {
				t.Fatalf("inline=%v run %d: no composite-map work charged (%+v)", inline, run, res.Sched)
			}
			if first == nil {
				first = res
				continue
			}
			if res.Makespan != first.Makespan || res.Sched != first.Sched {
				t.Errorf("inline=%v run %d differs from run 1:\n makespan %d vs %d\n sched %+v\n    vs %+v",
					inline, run, res.Makespan, first.Makespan, res.Sched, first.Sched)
			}
		}
	}
}
