package trace_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkTakes compares rec's Take with every event sorted, and each job's
// TakeJob over the whole recorder with that filtered to the job.
func checkTakes(t *testing.T, what string, rec *trace.Recorder, from trace.Cursor, jobs int) {
	t.Helper()
	want := rec.SortedTake()
	if got := rec.Take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Take differs from the sorted events (%d events, want %d)", what, got.Len(), want.Len())
	}
	for job := 0; job < jobs; job++ {
		got, err := rec.TakeJob(job, from, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w := want.FilterJob(job); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: TakeJob(%d) differs from the sorted events filtered (%d events, want %d)", what, job, got.Len(), w.Len())
		}
	}
}

// TestTakeMergeOnPoolTraces: a pool's worker rings, merged, read as the
// sorted trace does — two co-tenant jobs on four workers.
func TestTakeMergeOnPoolTraces(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		rec := trace.NewRecorder(trace.Meta{}, 4)
		from := rec.Cursor()
		p, err := tenant.NewPool(tenant.Config{Workers: 4, Manager: kind, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*tenant.Job
		for i := 0; i < 2; i++ {
			prog, err := core.NewProgram(
				&core.Phase{Name: "a", Granules: 256, Enable: enable.NewIdentity(),
					Work: func(granule.ID) { time.Sleep(time.Microsecond) }},
				&core.Phase{Name: "b", Granules: 256},
			)
			if err != nil {
				t.Fatal(err)
			}
			j, err := p.Submit(prog, core.Options{Grain: 4, Overlap: true}, tenant.JobConfig{})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Close(); err != nil {
			t.Fatal(err)
		}
		busy, sorted := rec.RingsInOrder()
		t.Logf("%s: %d rings recorded, all in order: %v", kind, busy, sorted)
		checkTakes(t, fmt.Sprintf("pool/%v", kind), rec, from, len(jobs))
	}
}

// TestTakeMergeOnVirtualTraces: the same on the virtual machine's trace,
// three co-tenant jobs under each management model.
func TestTakeMergeOnVirtualTraces(t *testing.T) {
	for _, m := range []sim.MgmtModel{sim.StealsWorker, sim.Sharded, sim.Async} {
		rec := trace.NewRecorder(trace.Meta{}, 1)
		from := rec.Cursor()
		specs := make([]sim.JobSpec, 3)
		for i := range specs {
			prog, err := workload.Chain(enable.Identity, 3, 512, workload.UnitCost(), uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			specs[i] = sim.JobSpec{Prog: prog, Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}}
		}
		if _, err := sim.Run(context.Background(), specs, sim.Config{Procs: 8, Mgmt: m, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		busy, sorted := rec.RingsInOrder()
		t.Logf("%v: %d rings recorded, all in order: %v", m, busy, sorted)
		checkTakes(t, fmt.Sprintf("virtual/%v", m), rec, from, len(specs))
	}
}
