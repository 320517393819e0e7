package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunIsOneJobRunAll: Run is the one-job run of the engine RunMulti
// drives, so for every management model the two must report the same
// run — the same scalars, the same observer snapshot stream and the same
// trace, event for event. The fixtures cover overlap (identity chain),
// the serial-action gate and the CASPER census (every mapping kind). A
// second pricing path growing back under Run fails here first.
func TestRunIsOneJobRunAll(t *testing.T) {
	fixtures := []struct {
		name  string
		build func() *core.Program
		grain int
	}{
		{"identity", func() *core.Program { return goldenChain(t, 4, 1024, 1986) }, 4},
		{"serial-actions", func() *core.Program {
			prog, err := core.NewProgram(
				&core.Phase{Name: "s1", Granules: 64},
				&core.Phase{Name: "s2", Granules: 64, SerialCost: 500},
				&core.Phase{Name: "s3", Granules: 64, SerialCost: 500},
			)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}, 4},
		{"casper", func() *core.Program { return goldenCasper(t, 11) }, 2},
	}
	for _, fx := range fixtures {
		for _, model := range []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async} {
			name := fmt.Sprintf("%s/%v", fx.name, model)
			var oneSnaps, multiSnaps []Snapshot
			oneRec := trace.NewRecorder(trace.Meta{}, 16)
			multiRec := trace.NewRecorder(trace.Meta{}, 16)
			opt := goldenOpt(fx.grain)
			opt.AdaptiveBatch = model == Adaptive

			one, err := Run(fx.build(), opt, Config{Procs: 16, Mgmt: model, Trace: oneRec,
				Observer: func(sn Snapshot) { oneSnaps = append(oneSnaps, sn) }})
			if err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			multi, err := RunMulti([]JobSpec{{Name: "solo", Prog: fx.build(), Opt: opt}},
				Config{Procs: 16, Mgmt: model, Trace: multiRec,
					Observer: func(sn Snapshot) { multiSnaps = append(multiSnaps, sn) }})
			if err != nil {
				t.Fatalf("%s: RunMulti: %v", name, err)
			}

			job := multi.Jobs[0]
			if one.Makespan != multi.Makespan || one.ComputeUnits != multi.ComputeUnits ||
				one.MgmtUnits != multi.MgmtUnits || one.IdleUnits != multi.IdleUnits ||
				one.Batch != multi.Batch || one.BatchChanges != multi.BatchChanges {
				t.Errorf("%s: Run reports makespan=%d compute=%d mgmt=%d idle=%d batch=%d/%d, RunMulti %d %d %d %d %d/%d",
					name, one.Makespan, one.ComputeUnits, one.MgmtUnits, one.IdleUnits, one.Batch, one.BatchChanges,
					multi.Makespan, multi.ComputeUnits, multi.MgmtUnits, multi.IdleUnits, multi.Batch, multi.BatchChanges)
			}
			if one.Sched != job.Sched {
				t.Errorf("%s: scheduler statistics differ:\n Run      %+v\n RunMulti %+v", name, one.Sched, job.Sched)
			}
			if !reflect.DeepEqual(one.Phases, job.Phases) {
				t.Errorf("%s: phase traces differ:\n Run      %+v\n RunMulti %+v", name, one.Phases, job.Phases)
			}
			if job.Makespan != multi.Makespan || multi.BackfillUnits != 0 {
				t.Errorf("%s: one-job run: job makespan %d vs run %d, backfill %d",
					name, job.Makespan, multi.Makespan, multi.BackfillUnits)
			}
			if !reflect.DeepEqual(oneSnaps, multiSnaps) {
				t.Errorf("%s: observer streams differ (%d vs %d snapshots)", name, len(oneSnaps), len(multiSnaps))
			}
			oneTr, multiTr := oneRec.Take(), multiRec.Take()
			oneTr.Meta.Jobs, multiTr.Meta.Jobs = nil, nil // the job's name is the caller's
			if !reflect.DeepEqual(oneTr.Meta, multiTr.Meta) {
				t.Errorf("%s: trace metadata differs:\n Run      %+v\n RunMulti %+v", name, oneTr.Meta, multiTr.Meta)
			}
			if !reflect.DeepEqual(oneTr.Events, multiTr.Events) {
				t.Errorf("%s: traces differ (%d vs %d events)", name, len(oneTr.Events), len(multiTr.Events))
			}
		}
	}
}

// TestMultiDeterministic: identical inputs must produce identical results.
func TestMultiDeterministic(t *testing.T) {
	build := func() []JobSpec {
		return []JobSpec{
			{Name: "a", Prog: twoPhase(t, 512, enable.NewIdentity()),
				Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}},
			{Name: "b", Prog: twoPhase(t, 256, nil),
				Opt: core.Options{Grain: 2, Costs: core.DefaultCosts()}, Priority: 1},
		}
	}
	r1, err := RunMulti(build(), Config{Procs: 16, Mgmt: StealsWorker})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMulti(build(), Config{Procs: 16, Mgmt: StealsWorker})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.MgmtUnits != r2.MgmtUnits ||
		r1.BackfillUnits != r2.BackfillUnits || r1.IdleUnits != r2.IdleUnits {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Makespan != r2.Jobs[i].Makespan {
			t.Errorf("job %d makespan diverges: %d vs %d", i, r1.Jobs[i].Makespan, r2.Jobs[i].Makespan)
		}
	}
}

// TestMultiConservation: each job's compute is conserved exactly, and the
// aggregate utilization stays within the machine's capacity.
func TestMultiConservation(t *testing.T) {
	progA := twoPhase(t, 512, enable.NewIdentity())
	progB := twoPhase(t, 384, enable.NewUniversal())
	res, err := RunMulti([]JobSpec{
		{Name: "a", Prog: progA, Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}},
		{Name: "b", Prog: progB, Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}},
	}, Config{Procs: 8, Mgmt: Sharded})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].ComputeUnits != int64(progA.TotalCost()) {
		t.Errorf("job a compute %d != %d", res.Jobs[0].ComputeUnits, progA.TotalCost())
	}
	if res.Jobs[1].ComputeUnits != int64(progB.TotalCost()) {
		t.Errorf("job b compute %d != %d", res.Jobs[1].ComputeUnits, progB.TotalCost())
	}
	if res.ComputeUnits != res.Jobs[0].ComputeUnits+res.Jobs[1].ComputeUnits {
		t.Errorf("aggregate compute %d inconsistent", res.ComputeUnits)
	}
	if res.Utilization > 1.0 {
		t.Errorf("utilization %v exceeds capacity", res.Utilization)
	}
	for _, j := range res.Jobs {
		if j.Makespan <= 0 || j.Makespan > res.Makespan {
			t.Errorf("job %s makespan %d outside run makespan %d", j.Name, j.Makespan, res.Makespan)
		}
	}
}

// TestMultiBackfillFillsRundown: a narrow job (little parallelism, long
// chain) co-scheduled with a wide job must donate its idle home capacity:
// the wide job receives backfill units, and the machine finishes both
// jobs sooner than running them back to back.
func TestMultiBackfillFillsRundown(t *testing.T) {
	narrow := func() *core.Program {
		prog, err := workload.Chain(enable.Identity, 8, 32, workload.FixedCost(400), 7)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	wide := func() *core.Program {
		prog, err := workload.Chain(enable.Identity, 2, 4096, workload.FixedCost(100), 9)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	opt := func() core.Options {
		return core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
	}
	cfg := Config{Procs: 32, Mgmt: StealsWorker}

	aloneNarrow, err := Run(narrow(), opt(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	aloneWide, err := Run(wide(), opt(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti([]JobSpec{
		{Name: "narrow", Prog: narrow(), Opt: opt()},
		{Name: "wide", Prog: wide(), Opt: opt()},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Jobs[1].BackfillUnits == 0 {
		t.Errorf("wide job received no backfill: %+v", multi.Jobs)
	}
	sequential := aloneNarrow.Makespan + aloneWide.Makespan
	if multi.Makespan >= sequential {
		t.Errorf("co-scheduled makespan %d not below sequential %d", multi.Makespan, sequential)
	}
	if multi.Utilization <= aloneNarrow.Utilization {
		t.Errorf("tenancy utilization %.3f not above the narrow job's alone %.3f",
			multi.Utilization, aloneNarrow.Utilization)
	}
}

// TestMultiWeightsSetHomeShares: home workers divide by weight.
func TestMultiWeightsSetHomeShares(t *testing.T) {
	res, err := RunMulti([]JobSpec{
		{Name: "heavy", Prog: twoPhase(t, 256, enable.NewIdentity()),
			Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}, Weight: 3},
		{Name: "light", Prog: twoPhase(t, 256, enable.NewIdentity()),
			Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}, Weight: 1},
	}, Config{Procs: 8, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].HomeWorkers != 6 || res.Jobs[1].HomeWorkers != 2 {
		t.Errorf("home shares = %d/%d, want 6/2", res.Jobs[0].HomeWorkers, res.Jobs[1].HomeWorkers)
	}
}

// TestMultiPriorityFavoursHighPriorityJob: with two identical jobs and
// one backfill donor, the higher-priority job must not finish after the
// lower-priority one.
func TestMultiPriorityFavoursHighPriorityJob(t *testing.T) {
	mk := func() *core.Program {
		prog, err := core.NewProgram(
			&core.Phase{Name: "p1", Granules: 512, Enable: enable.NewIdentity()},
			&core.Phase{Name: "p2", Granules: 512},
		)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	donor := func() *core.Program {
		prog, err := workload.Chain(enable.Identity, 6, 16, workload.FixedCost(600), 3)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	_ = granule.ID(0)
	opt := func() core.Options {
		return core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	}
	res, err := RunMulti([]JobSpec{
		{Name: "donor", Prog: donor(), Opt: opt()},
		{Name: "low", Prog: mk(), Opt: opt(), Priority: 0},
		{Name: "high", Prog: mk(), Opt: opt(), Priority: 5},
	}, Config{Procs: 16, Mgmt: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	low, high := res.Jobs[1], res.Jobs[2]
	if high.Makespan > low.Makespan {
		t.Errorf("high-priority job finished at %d, after the identical low-priority job at %d",
			high.Makespan, low.Makespan)
	}
}
