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
	"fmt"
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

// TestRunAllocsPerJob gates what a job adds to a run's construction: its
// scheduler's three objects (core.New) and its description arena, and its
// share of the run's slices — job records, phase traces, results, Async's
// completion queues — each made once for the whole run. The slope between
// 8 and 16 three-phase jobs of 64 granules is the per-job cost. The jobs
// are named, so that no default name is formatted: fmt's printer cache,
// which the race detector empties at random, would make the count noisy.
func TestRunAllocsPerJob(t *testing.T) {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprint("job", i)
	}
	build := func(n int) []JobSpec {
		specs := make([]JobSpec, n)
		for i := range specs {
			specs[i] = JobSpec{
				Name:     names[i],
				Prog:     allocChain(t, 64),
				Opt:      core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
				Priority: i % 2,
				Weight:   1 + i%2,
			}
		}
		return specs
	}
	for _, c := range []struct {
		mgmt MgmtModel
		max  float64
	}{{StealsWorker, 6}, {Sharded, 6}, {Async, 7}} {
		cfg := Config{Procs: 16, Mgmt: c.mgmt}
		allocs := func(n int) float64 {
			specs := build(n)
			return testing.AllocsPerRun(5, func() {
				if _, err := runJobs(specs, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		a8, a16 := allocs(8), allocs(16)
		slope := (a16 - a8) / 8
		t.Logf("%v: %.0f allocations at 8 jobs, %.0f at 16: %.2f per job", c.mgmt, a8, a16, slope)
		if slope > c.max {
			t.Errorf("%v: each job adds %.2f allocations to a run, want at most %.0f", c.mgmt, slope, c.max)
		}
	}
}
