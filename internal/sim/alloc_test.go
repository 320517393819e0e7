package sim

// Allocation gates for the zero-alloc event engine. A run's construction
// necessarily allocates (schedulers, bucket rings, slot arrays, worker
// state), but all of that is warmup whose size depends on the machine and
// phase structure, NOT on how many granules flow through: the typed
// calendar queue recycles payload slots through a freelist, descriptions
// recycle through the scheduler's slab freelist, the in-flight table
// reuses its backing array, and completion batches reuse their scratch. So the gate is differential: growing the program by K
// extra dispatches must cost (amortized) zero extra allocations — any
// steady-state per-dispatch allocation would scale with K and fail.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/workload"
)

// allocChain builds a phases-deep identity chain with n granules per
// phase.
func allocChain(t testing.TB, n int) *core.Program {
	t.Helper()
	prog, err := workload.Chain(enable.Identity, 3, n, workload.UnitCost(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runAllocs measures allocations per Run (the one-job path) at n granules per
// phase and returns them with the run's dispatch count.
func runAllocs(t *testing.T, n int) (allocs float64, dispatches int64) {
	t.Helper()
	opt := core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	cfg := Config{Procs: 16, Mgmt: Sharded}
	res, err := runProg(allocChain(t, n), opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(3, func() {
		if _, err := runProg(allocChain(t, n), opt, cfg); err != nil {
			t.Error(err)
		}
	})
	return allocs, res.Sched.Dispatches
}

// multiAllocs is runAllocs for a 4-job multi-program run.
func multiAllocs(t *testing.T, n int) (allocs float64, dispatches int64) {
	t.Helper()
	build := func() []JobSpec {
		specs := make([]JobSpec, 4)
		for i := range specs {
			specs[i] = JobSpec{
				Prog:     allocChain(t, n),
				Opt:      core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
				Priority: i % 2,
				Weight:   1 + i%2,
			}
		}
		return specs
	}
	cfg := Config{Procs: 16, Mgmt: Sharded}
	res, err := runJobs(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		dispatches += j.Sched.Dispatches
	}
	allocs = testing.AllocsPerRun(3, func() {
		if _, err := runJobs(build(), cfg); err != nil {
			t.Error(err)
		}
	})
	return allocs, dispatches
}

// TestRunSteadyStateAllocFree: quadrupling a Run's dispatch count — the
// one-job path, with the phase and timeline recorders on — must not add
// allocations beyond a fraction of an alloc per extra dispatch (slack for
// a handful of backing-array doublings).
func TestRunSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is slow under -short")
	}
	aSmall, dSmall := runAllocs(t, 2048)
	aBig, dBig := runAllocs(t, 8192)
	extraDispatch := float64(dBig - dSmall)
	extraAlloc := aBig - aSmall
	if extraDispatch <= 0 {
		t.Fatalf("dispatch counts did not grow: %d -> %d", dSmall, dBig)
	}
	// Program construction itself allocates per phase cost table, so give
	// the gate 1% — a real per-dispatch allocation would show up as >= 100%.
	if extraAlloc/extraDispatch > 0.01 {
		t.Errorf("steady-state allocations: %0.f extra allocs for %0.f extra dispatches (%.4f/dispatch); want amortized zero",
			extraAlloc, extraDispatch, extraAlloc/extraDispatch)
	}
}

// TestRunMultiSteadyStateAllocFree: the same differential gate for a
// four-job run — the calendar queue's slot freelist, the bucket
// index lists, and the per-job caches must all recycle.
func TestRunMultiSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is slow under -short")
	}
	// Sizes start past the warmup knee: below ~4096 granules the backing
	// arrays (bucket index lists, completed-set runs, slot stores) are
	// still doubling toward their scale-independent high-water marks.
	aSmall, dSmall := multiAllocs(t, 4096)
	aBig, dBig := multiAllocs(t, 16384)
	extraDispatch := float64(dBig - dSmall)
	extraAlloc := aBig - aSmall
	if extraDispatch <= 0 {
		t.Fatalf("dispatch counts did not grow: %d -> %d", dSmall, dBig)
	}
	if extraAlloc/extraDispatch > 0.01 {
		t.Errorf("steady-state allocations: %0.f extra allocs for %0.f extra dispatches (%.4f/dispatch); want amortized zero",
			extraAlloc, extraDispatch, extraAlloc/extraDispatch)
	}
}
