package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/workload"
)

// fineChain builds the management-bound workload of the Adaptive model
// tests: an identity chain at grain 1, where per-task management rivals
// per-task compute and the serialized lock visit is the bottleneck.
func fineChain(t testing.TB, phases, granules int) *core.Program {
	t.Helper()
	prog, err := workload.Chain(enable.Identity, phases, granules,
		workload.UniformCost(100, 400, 1986), 1986)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func fineOpts() core.Options {
	return core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}
}

// runAdaptive runs prog under the Adaptive model with a fixed batch (or,
// when target > 0, the online controller starting from batch and steering
// toward target).
func runAdaptive(t testing.TB, prog *core.Program, opt core.Options, procs, batch int, target float64) *Result {
	t.Helper()
	res, err := runProg(prog, opt, Config{Procs: procs, Mgmt: Adaptive, Batch: batch, AdaptiveTarget: target})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveModelCompletes: the Adaptive model runs programs to
// completion with all compute conserved, management charged, and the
// fixed batch reported back.
func TestAdaptiveModelCompletes(t *testing.T) {
	prog := fineChain(t, 2, 256)
	res := runAdaptive(t, prog, fineOpts(), 8, 16, 0)
	if res.Workers != 8 || res.Procs != 8 {
		t.Errorf("workers=%d procs=%d, want 8/8", res.Workers, res.Procs)
	}
	if res.ComputeUnits != int64(prog.TotalCost()) {
		t.Errorf("compute=%d, want %d", res.ComputeUnits, prog.TotalCost())
	}
	if res.MgmtUnits == 0 {
		t.Error("adaptive model charged no management")
	}
	if res.Batch != 16 {
		t.Errorf("reported batch %d, want the fixed 16", res.Batch)
	}
	if res.BatchChanges != 0 {
		t.Errorf("fixed run reported %d controller changes", res.BatchChanges)
	}
}

// TestAdaptiveModelDeterminism: identical inputs, identical results —
// including the controller's trajectory.
func TestAdaptiveModelDeterminism(t *testing.T) {
	run := func() *Result {
		return runAdaptive(t, fineChain(t, 3, 512), fineOpts(), 16, 4, DefaultMgmtTarget)
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.MgmtUnits != b.MgmtUnits ||
		a.Batch != b.Batch || a.BatchChanges != b.BatchChanges {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestAdaptiveBatchAmortizesLock: at fine grain, each serialized lock
// visit's Acquire cost dominates when every task pays it alone; a batched
// run must finish strictly sooner than batch=1. This is the
// zero-allocation steal/batching claim priced in virtual time.
func TestAdaptiveBatchAmortizesLock(t *testing.T) {
	perTask := runAdaptive(t, fineChain(t, 3, 1024), fineOpts(), 16, 1, 0)
	batched := runAdaptive(t, fineChain(t, 3, 1024), fineOpts(), 16, 16, 0)
	if batched.Makespan >= perTask.Makespan {
		t.Errorf("batch=16 makespan %d not below batch=1 makespan %d",
			batched.Makespan, perTask.Makespan)
	}
	if batched.Utilization <= perTask.Utilization {
		t.Errorf("batch=16 utilization %.3f not above batch=1 %.3f",
			batched.Utilization, perTask.Utilization)
	}
	if batched.ComputeUnits != perTask.ComputeUnits {
		t.Errorf("compute diverged: %d vs %d", batched.ComputeUnits, perTask.ComputeUnits)
	}
}

// TestAdaptiveConvergesNearBestFixedBatch is the controller acceptance
// test: on an E5-style management-bound ratio workload, the online
// controller must land within one multiplicative step of the knee of the
// fixed-batch sweep — the smallest fixed batch whose makespan is within
// 2% of the sweep's best — and must get a makespan competitive with that
// best, without ever being told the workload.
func TestAdaptiveConvergesNearBestFixedBatch(t *testing.T) {
	const procs = 16
	build := func() *core.Program { return fineChain(t, 3, 2048) }

	best := int64(-1)
	makespans := map[int]int64{}
	caps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	for _, b := range caps {
		res := runAdaptive(t, build(), fineOpts(), procs, b, 0)
		makespans[b] = res.Makespan
		if best < 0 || res.Makespan < best {
			best = res.Makespan
		}
	}
	knee := caps[len(caps)-1]
	for _, b := range caps {
		if float64(makespans[b]) <= float64(best)*1.02 {
			knee = b
			break
		}
	}

	// Start the controller at the untuned worst case (batch 1) so it has
	// to climb the whole amortization curve on its own.
	adaptive := runAdaptive(t, build(), fineOpts(), procs, 1, 0.03)
	if adaptive.BatchChanges == 0 {
		t.Fatalf("controller never moved on a management-bound workload (batch stayed %d)", adaptive.Batch)
	}
	lo, hi := knee/2, knee*2
	if adaptive.Batch < lo || adaptive.Batch > hi {
		t.Errorf("controller settled at batch %d, want within one step of the knee %d (sweep %v)",
			adaptive.Batch, knee, makespans)
	}
	if float64(adaptive.Makespan) > float64(best)*1.10 {
		t.Errorf("adaptive makespan %d more than 10%% above best fixed %d (knee %d, final batch %d)",
			adaptive.Makespan, best, knee, adaptive.Batch)
	}
}

// TestAdaptiveSteadyWorkloadHolds: started at a healthy batch on a
// workload with abundant tasks and low overhead, the controller has no
// signal through the body of the run. The final drain may legitimately
// shrink once — the last refills hoard the closing tasks while peers
// park, the exact tail-latency signal the controller exists for — but a
// steady workload permits nothing more: no oscillation (a second change
// would have to reverse the first), and a makespan indistinguishable from
// the fixed run.
func TestAdaptiveSteadyWorkloadHolds(t *testing.T) {
	fixed := runAdaptive(t, fineChain(t, 3, 2048), fineOpts(), 16, 16, 0)
	adaptive := runAdaptive(t, fineChain(t, 3, 2048), fineOpts(), 16, 16, 0.03)
	if adaptive.BatchChanges > 1 {
		t.Errorf("controller made %d changes on a steady workload, want at most the drain adjustment (batch %d)",
			adaptive.BatchChanges, adaptive.Batch)
	}
	if adaptive.Batch < 8 || adaptive.Batch > 16 {
		t.Errorf("steady batch drifted to %d, want 8..16", adaptive.Batch)
	}
	d := float64(adaptive.Makespan - fixed.Makespan)
	if d < 0 {
		d = -d
	}
	if d > float64(fixed.Makespan)*0.005 {
		t.Errorf("steady adaptive makespan %d differs from fixed %d by more than 0.5%%",
			adaptive.Makespan, fixed.Makespan)
	}
}

// TestAdaptiveShedsHoarding: phases of only 32 coarse tasks under a
// 16-task refill batch hand the whole phase to two workers; the
// controller must shrink the batch — one direction only — and must not
// end up slower than the fixed configuration it abandoned.
func TestAdaptiveShedsHoarding(t *testing.T) {
	build := func() *core.Program {
		prog, err := workload.Chain(enable.Identity, 6, 2048,
			workload.UniformCost(100, 400, 7), 7)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	opt := core.Options{Grain: 64, Overlap: true, Costs: core.DefaultCosts()}
	fixed, err := runProg(build(), opt, Config{Procs: 8, Mgmt: Adaptive, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := runProg(build(), opt, Config{Procs: 8, Mgmt: Adaptive, Batch: 16, AdaptiveTarget: DefaultMgmtTarget})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Batch >= 16 {
		t.Errorf("controller did not shrink a hoarding batch (still %d)", adaptive.Batch)
	}
	if float64(adaptive.Makespan) > float64(fixed.Makespan)*1.03 {
		t.Errorf("adaptive makespan %d worse than the hoarding fixed batch %d",
			adaptive.Makespan, fixed.Makespan)
	}
}

// TestAdaptiveAcceptedInMulti: the Adaptive model prices multi-program
// runs (job-tagged shards with flush-before-switch); a single-job multi
// run must complete and execute every granule.
func TestAdaptiveAcceptedInMulti(t *testing.T) {
	prog := fineChain(t, 2, 64)
	res, err := runJobs([]JobSpec{{Name: "a", Prog: prog, Opt: fineOpts()}},
		Config{Procs: 4, Mgmt: Adaptive})
	if err != nil {
		t.Fatalf("RunMulti rejected the Adaptive model: %v", err)
	}
	if res.ComputeUnits != int64(prog.TotalCost()) {
		t.Errorf("compute units %d, want the program's total cost %d",
			res.ComputeUnits, prog.TotalCost())
	}
	if res.Batch == 0 {
		t.Error("Adaptive multi run reported Batch = 0")
	}
}

// TestAdaptivePhaseEndsWithinMakespan: batched completion flushes charge
// management after the last task's event; the phase End bookkeeping must
// still stay inside the reported makespan.
func TestAdaptivePhaseEndsWithinMakespan(t *testing.T) {
	n := 96
	prog, err := core.NewProgram(&core.Phase{
		Name: "only", Granules: n,
		Cost: func(granule.ID) core.Cost { return 50 },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runProg(prog, core.Options{Grain: 2, Costs: core.DefaultCosts()},
		Config{Procs: 4, Mgmt: Adaptive, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Phases {
		if pt.End > res.Makespan {
			t.Errorf("phase %d End=%d exceeds makespan %d", i, pt.End, res.Makespan)
		}
	}
}
