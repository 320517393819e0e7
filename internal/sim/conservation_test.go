package sim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestConservationRandomPrograms drives random programs and option sets
// through the simulator and checks the accounting identities that must
// hold for any schedule:
//
//   - every granule's cost is computed exactly once
//     (ComputeUnits == program total cost);
//   - utilization never exceeds 1;
//   - the makespan is at least the critical path lower bound
//     (total work / workers) and at least the serial-action sum;
//   - the per-phase windows nest inside [0, makespan].
func TestConservationRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(8711986))
	for iter := 0; iter < 60; iter++ {
		nPhases := 1 + rng.Intn(5)
		phases := make([]*core.Phase, nPhases)
		var serialSum core.Cost
		for i := range phases {
			phases[i] = &core.Phase{
				Name:     string(rune('a' + i)),
				Granules: rng.Intn(300),
				Cost:     workload.UniformCost(1, core.Cost(1+rng.Intn(200)), rng.Uint64()),
			}
			if i > 0 && rng.Intn(3) == 0 {
				sc := core.Cost(rng.Intn(50))
				phases[i].SerialCost = sc
				serialSum += sc
			}
		}
		for i := 0; i < nPhases-1; i++ {
			if phases[i+1].SerialCost > 0 {
				continue // must stay null
			}
			switch rng.Intn(4) {
			case 0:
				// null
			case 1:
				phases[i].Enable = enable.NewUniversal()
			case 2:
				phases[i].Enable = enable.NewIdentity()
			case 3:
				n := phases[i].Granules
				if n == 0 {
					phases[i].Enable = enable.NewUniversal()
					continue
				}
				phases[i].Enable = enable.NewReverse(func(r granule.ID) []granule.ID {
					return []granule.ID{r % granule.ID(n)}
				})
			}
		}
		prog, err := core.NewProgram(phases...)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		procs := 2 + rng.Intn(12)
		model := MgmtModel(rng.Intn(2))
		res, err := runProg(prog, core.Options{
			Grain:      1 + rng.Intn(30),
			Overlap:    rng.Intn(3) != 0,
			Elevate:    rng.Intn(2) == 0,
			InlineMaps: rng.Intn(2) == 0,
			Split:      core.SplitPolicy(rng.Intn(2)),
			SuccSplit:  core.SuccSplitMode(rng.Intn(2)),
			Costs:      core.DefaultCosts(),
		}, Config{Procs: procs, Mgmt: model})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		if want := int64(prog.TotalCost()); res.ComputeUnits != want {
			t.Fatalf("iter %d: compute %d != program cost %d", iter, res.ComputeUnits, want)
		}
		if res.Utilization > 1.0000001 {
			t.Fatalf("iter %d: utilization %v > 1", iter, res.Utilization)
		}
		if res.SerialUnits != int64(serialSum) {
			t.Fatalf("iter %d: serial %d != declared %d", iter, res.SerialUnits, serialSum)
		}
		lower := int64(prog.TotalCost())/int64(res.Workers) + int64(serialSum)
		if prog.TotalGranules() > 0 && res.Makespan < lower/2 {
			t.Fatalf("iter %d: makespan %d below plausible bound %d", iter, res.Makespan, lower)
		}
		for i, pt := range res.Phases {
			if prog.Phases[i].Granules == 0 {
				continue
			}
			if pt.Start < 0 || pt.End > res.Makespan || pt.End < pt.Start {
				t.Fatalf("iter %d: phase %d window [%d,%d] outside [0,%d]",
					iter, i, pt.Start, pt.End, res.Makespan)
			}
		}
	}
}

// runTraced runs spec alone on cfg with a flight recorder attached and
// returns the run and its trace.
func runTraced(t *testing.T, spec JobSpec, cfg Config) (*Result, *MultiResult, *trace.Trace) {
	t.Helper()
	rec := trace.NewRecorder(trace.Meta{}, cfg.Procs)
	cfg.Trace = rec
	multi, err := Run(context.Background(), []JobSpec{spec}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return multi.OneJob(), multi, rec.Take()
}

// busyByProc sums tr's busy intervals per processor.
func busyByProc(tr *trace.Trace, procs int) []int64 {
	by := make([]int64, procs)
	tr.EachBusy(func(iv trace.Interval) { by[iv.Proc] += iv.T1 - iv.T0 })
	return by
}

// TestTimelineAccountingMatchesResult cross-checks the trace's bucketed
// timeline against the scalar accumulators: the trace is the run's only
// record of busy time, and its horizon is the makespan.
func TestTimelineAccountingMatchesResult(t *testing.T) {
	prog, err := core.NewProgram(
		&core.Phase{Name: "a", Granules: 200, Enable: enable.NewIdentity()},
		&core.Phase{Name: "b", Granules: 200},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, _, tr := runTraced(t, JobSpec{Prog: prog, Opt: core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}},
		Config{Procs: 6, Mgmt: StealsWorker})
	tl := tr.Timeline(res.Procs, 7)
	if tl.BusyTotal() != res.ComputeUnits {
		t.Errorf("timeline busy %d != compute %d", tl.BusyTotal(), res.ComputeUnits)
	}
	if tl.End() != res.Makespan || tl.Utilization() != res.Utilization {
		t.Errorf("timeline horizon %d, utilization %v; run makespan %d, utilization %v",
			tl.End(), tl.Utilization(), res.Makespan, res.Utilization)
	}
	var byProc int64
	for _, b := range busyByProc(tr, res.Procs) {
		byProc += b
	}
	if byProc != res.ComputeUnits {
		t.Errorf("per-proc busy %d != compute %d", byProc, res.ComputeUnits)
	}
}

// TestTraceBusyCountsDeadAttempts: under every model, a faulted and
// retried one-job run's trace-derived busy time is the run's compute,
// tasks of the dead attempt included — their completions never surface,
// so only the dispatch records them — and no processor runs two tasks at
// once.
func TestTraceBusyCountsDeadAttempts(t *testing.T) {
	prog, err := workload.Chain(enable.Identity, 3, 512, workload.UniformCost(100, 400, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.GrainError, Job: 0, Phase: 1, Granule: 7, Worker: -1},
		{Kind: fault.GrainSlow, Job: 0, Phase: 0, Granule: 100, Worker: -1, Factor: 3},
	}}
	for m := range kinds {
		model := MgmtModel(m)
		t.Run(model.String(), func(t *testing.T) {
			res, multi, tr := runTraced(t,
				JobSpec{Prog: prog, Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}, Retry: 1},
				Config{Procs: 6, Mgmt: model, Faults: &spec})
			if job := multi.Jobs[0]; job.Err != nil || job.Attempts != 2 {
				t.Fatalf("want one recovered retry, got attempts=%d err=%v", job.Attempts, job.Err)
			}
			by := busyByProc(tr, res.Procs)
			var total int64
			for _, b := range by {
				total += b
			}
			if total != res.ComputeUnits {
				t.Errorf("trace busy %d (per proc %v) != compute %d", total, by, res.ComputeUnits)
			}
			last := make([]int64, res.Procs)
			tr.EachBusy(func(iv trace.Interval) {
				if iv.T0 < last[iv.Proc] {
					t.Errorf("proc %d: task at %d overlaps one running until %d", iv.Proc, iv.T0, last[iv.Proc])
				}
				last[iv.Proc] = iv.T1
			})
		})
	}
}
