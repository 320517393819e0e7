package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The chaos sweep: seeded fault campaigns against every management model
// in virtual time. The contract under test is the tentpole's isolation
// trichotomy — every injected fault ends in exactly one of {successful
// retry, isolated per-job error, deadline abort}, never a hung run or
// cross-job corruption — plus bit-identical determinism per seed and
// trace-replay conservation on every surviving job.

var chaosModels = []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async}

// chaosProcs keeps the worker count at 8 under every model (StealsWorker
// spends one processor on the executive).
func chaosProcs(m MgmtModel) int {
	if m == StealsWorker {
		return 9
	}
	return 8
}

func chaosJobs(t *testing.T) []JobSpec {
	t.Helper()
	a, err := workload.Chain(enable.Identity, 4, 64, workload.FixedCost(200), 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Chain(enable.Identity, 3, 96, workload.FixedCost(150), 13)
	if err != nil {
		t.Fatal(err)
	}
	opt := func() core.Options {
		return core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	}
	return []JobSpec{
		{Name: "alpha", Prog: a, Opt: opt(), Weight: 2, Retry: 3, Backoff: 64},
		{Name: "beta", Prog: b, Opt: opt(), Weight: 1, Priority: 1, Retry: 3, Backoff: 64},
	}
}

// checkOutcome asserts the trichotomy for one job result.
func checkOutcome(t *testing.T, tag string, jr JobResult) {
	t.Helper()
	switch {
	case jr.Err == nil:
		// Completed — cleanly or after a successful retry.
	case errors.Is(jr.Err, context.DeadlineExceeded):
		// Deadline abort.
	case strings.Contains(jr.Err.Error(), "injected"):
		// Isolated per-job failure that exhausted its retries.
	default:
		t.Errorf("%s: job %q died of something other than the trichotomy: %v", tag, jr.Name, jr.Err)
	}
}

// TestChaosSweepDeterministicAndIsolated runs seeded scenarios against
// every model, twice per seed: the run must never error out as a whole
// (a fault escaping its job would surface here as a run error or a
// stall), each job must land in the trichotomy, and the two runs must be
// bit-identical.
func TestChaosSweepDeterministicAndIsolated(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				spec := fault.Scenario(seed, 4, 2, 4, 64, 8)
				cfg := Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec}
				r1, err := runJobs(chaosJobs(t), cfg)
				if err != nil {
					t.Fatalf("seed %d: run failed as a whole (isolation breached): %v", seed, err)
				}
				r2, err := runJobs(chaosJobs(t), cfg)
				if err != nil {
					t.Fatalf("seed %d: second run failed: %v", seed, err)
				}
				if !reflect.DeepEqual(r1.Jobs, r2.Jobs) || r1.Makespan != r2.Makespan ||
					r1.Faults != r2.Faults || r1.Retries != r2.Retries {
					t.Fatalf("seed %d: identical seeds produced different outcomes:\n%+v\nvs\n%+v", seed, r1, r2)
				}
				for _, jr := range r1.Jobs {
					checkOutcome(t, model.String(), jr)
					// A surviving job really ran to completion (replay
					// conservation pins exactness separately).
					if jr.Err == nil && (jr.Makespan <= 0 || jr.ComputeUnits <= 0) {
						t.Errorf("seed %d: surviving job %q has empty accounting: %+v", seed, jr.Name, jr)
					}
				}
			}
		})
	}
}

// TestChaosReplayConservation records a traced chaos run and replays
// every surviving job's filtered trace against a fresh scheduler: the
// schedule must be conserved — every dispatch enabled, every phase
// exactly complete — no matter what was injected around it.
func TestChaosReplayConservation(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				spec := fault.Scenario(seed, 4, 2, 4, 64, 8)
				rec := trace.NewRecorder(trace.Meta{}, chaosProcs(model))
				jobs := chaosJobs(t)
				res, err := runJobs(jobs, Config{
					Procs: chaosProcs(model), Mgmt: model, Faults: &spec, Trace: rec,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				tr := rec.Take()
				for i, jr := range res.Jobs {
					if jr.Err != nil {
						continue // aborted jobs have no complete schedule to conserve
					}
					sub := tr.FilterJob(i)
					rep, rerr := Replay(jobs[i].Prog, jobs[i].Opt, sub)
					if rerr != nil {
						t.Errorf("seed %d job %q: replay diverged: %v", seed, jr.Name, rerr)
						continue
					}
					if want := int64(jobs[i].Prog.TotalGranules()); rep.Granules != want {
						t.Errorf("seed %d job %q: replay conserved %d granules, want %d",
							seed, jr.Name, rep.Granules, want)
					}
				}
			}
		})
	}
}

// TestChaosDeadlineAbortIsIsolated pins the deadline contract: a job
// whose budget cannot fit its work aborts AT its deadline (not later),
// with an error wrapping context.DeadlineExceeded, while its co-tenant
// finishes within 10% of the makespan it gets in a fault-free run.
func TestChaosDeadlineAbortIsIsolated(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			baseline, err := runJobs(chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatal(err)
			}
			jobs := chaosJobs(t)
			jobs[0].Deadline = baseline.Jobs[0].Makespan / 4
			res, err := runJobs(jobs, Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatalf("deadline abort killed the whole run: %v", err)
			}
			j0, j1 := res.Jobs[0], res.Jobs[1]
			if !errors.Is(j0.Err, context.DeadlineExceeded) {
				t.Fatalf("deadlined job err = %v, want context.DeadlineExceeded", j0.Err)
			}
			if j0.Makespan > jobs[0].Deadline {
				t.Errorf("deadlined job retired at %d, past its budget %d", j0.Makespan, jobs[0].Deadline)
			}
			if j1.Err != nil {
				t.Fatalf("co-tenant died with the deadlined job: %v", j1.Err)
			}
			// The co-tenant inherits freed capacity; it must never be more
			// than 10% WORSE than its fault-free makespan.
			limit := baseline.Jobs[1].Makespan + baseline.Jobs[1].Makespan/10
			if j1.Makespan > limit {
				t.Errorf("co-tenant makespan %d exceeds 110%% of fault-free %d",
					j1.Makespan, baseline.Jobs[1].Makespan)
			}
		})
	}
}

// TestChaosGenerousDeadlineNeverFires pins the deadline check's
// empty-queue guard: a drained event queue is a normal, recoverable
// state — Async routinely parks completions behind a busy server with
// every worker idle, and the run loop's recovery branches regenerate
// events from it — so a job whose deadline comfortably exceeds its real
// makespan must never be spuriously aborted, fault-free and under seeded
// campaigns alike.
func TestChaosGenerousDeadlineNeverFires(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			baseline, err := runJobs(chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed <= 8; seed++ {
				jobs := chaosJobs(t)
				for i := range jobs {
					jobs[i].Deadline = baseline.Makespan * 64
				}
				cfg := Config{Procs: chaosProcs(model), Mgmt: model}
				if seed > 0 {
					spec := fault.Scenario(seed, 4, 2, 4, 64, 8)
					cfg.Faults = &spec
				}
				res, err := runJobs(jobs, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, jr := range res.Jobs {
					if errors.Is(jr.Err, context.DeadlineExceeded) {
						t.Errorf("seed %d: job %q spuriously aborted against a 64x-makespan deadline: %v",
							seed, jr.Name, jr.Err)
					}
				}
			}
		})
	}
}

// TestChaosRetrySucceeds pins the retry path: a one-shot injected grain
// error fails the first attempt, the retry runs clean, and the job
// completes with Attempts == 2 under every model.
func TestChaosRetrySucceeds(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			spec := fault.Spec{Rules: []fault.Rule{
				{Kind: fault.GrainError, Job: 0, Phase: 1, Granule: 7},
			}}
			jobs := chaosJobs(t)
			res, err := runJobs(jobs, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
			if err != nil {
				t.Fatal(err)
			}
			j0 := res.Jobs[0]
			if j0.Err != nil {
				t.Fatalf("retry did not rescue the job: %v", j0.Err)
			}
			if j0.Attempts != 2 {
				t.Errorf("attempts = %d, want 2", j0.Attempts)
			}
			if res.Retries != 1 {
				t.Errorf("retries = %d, want 1", res.Retries)
			}
			if res.Faults < 1 {
				t.Errorf("faults = %d, want >= 1", res.Faults)
			}
			if res.Jobs[1].Err != nil {
				t.Errorf("co-tenant caught the failure: %v", res.Jobs[1].Err)
			}
		})
	}
}

// TestChaosRetryExhaustionIsolates pins the other arm: a grain error
// with more firings than the retry budget retires the job with the
// injected error while the co-tenant completes.
func TestChaosRetryExhaustionIsolates(t *testing.T) {
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 3, Count: 10},
	}}
	jobs := chaosJobs(t)
	jobs[0].Retry = 2
	res, err := runJobs(jobs, Config{Procs: 8, Mgmt: Sharded, Faults: &spec})
	if err != nil {
		t.Fatal(err)
	}
	j0 := res.Jobs[0]
	if j0.Err == nil || !strings.Contains(j0.Err.Error(), "injected") {
		t.Fatalf("job 0 err = %v, want the injected error", j0.Err)
	}
	if j0.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + Retry 2)", j0.Attempts)
	}
	if res.Jobs[1].Err != nil {
		t.Errorf("co-tenant caught the failure: %v", res.Jobs[1].Err)
	}
}

// TestChaosWorkerCrashDegradesGracefully pins crash semantics: losing a
// worker mid-run completes both jobs (no task is lost with a crash) —
// capacity loss, not failure.
func TestChaosWorkerCrashDegradesGracefully(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			spec := fault.Spec{Rules: []fault.Rule{
				{Kind: fault.WorkerCrash, Worker: 2, Job: -1, Phase: -1, After: 500},
			}}
			res, err := runJobs(chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range res.Jobs {
				if jr.Err != nil {
					t.Errorf("job %q failed after a graceful crash: %v", jr.Name, jr.Err)
				}
			}
		})
	}
}

// crashThreeOfEight is the re-apportionment scenario of DESIGN.md §7: the
// chaos pair plus a weight-1 copy of alpha on eight workers, three of which
// crash as soon as t >= 100. The tenant package's twin test
// (TestPoolCrashReapportionsHomes) stages the same jobs and crashes on the
// goroutine pool and reads the same share.Policy type.
func crashThreeOfEight(t *testing.T) ([]JobSpec, fault.Spec) {
	t.Helper()
	jobs := chaosJobs(t)
	gamma := chaosJobs(t)[0]
	gamma.Name, gamma.Weight = "gamma", 1
	jobs = append(jobs, gamma)
	var spec fault.Spec
	for w := 0; w < 3; w++ {
		spec.Rules = append(spec.Rules, fault.Rule{Kind: fault.WorkerCrash, Worker: w, Job: -1, Phase: -1, After: 100})
	}
	return jobs, spec
}

// TestChaosCrashReapportionsHomes: a worker crash re-apportions the home
// workers over the survivors, as it does in the pool. At every observation
// mark no retired worker is anybody's home and the live jobs' homes add up
// to the live workers; once beta is done, alpha (weight 2) and gamma
// (weight 1) split the five survivors 3 : 2, and alpha finishes first.
// (Homes handed to dead workers left alpha two live workers against
// gamma's three, and it finished last.)
func TestChaosCrashReapportionsHomes(t *testing.T) {
	jobs, spec := crashThreeOfEight(t)
	var s *mstate
	split := false
	cfg := Config{Procs: 8, Mgmt: Dedicated, Faults: &spec, Observer: func(sn telemetry.Snapshot) {
		if sn.Final {
			return
		}
		homes := 0
		for _, j := range s.jobs {
			homes += j.pol.Homes()
		}
		if live := s.pol.LiveWorkers(); sn.ActiveJobs > 0 && homes != live {
			t.Errorf("t=%d: %d home workers over %d live workers", sn.VirtualTime, homes, live)
		}
		for w := 0; w < s.workers; w++ {
			if s.pol.Retired(w) && s.pol.Home(w) != nil {
				t.Errorf("t=%d: retired worker %d is a home of job %d", sn.VirtualTime, w, s.pol.Home(w).ID)
			}
		}
		if s.pol.LiveWorkers() == 5 && s.jobs[1].done && !s.jobs[0].done && !s.jobs[2].done {
			split = true
			if a, g := s.jobs[0].pol.Homes(), s.jobs[2].pol.Homes(); a != 3 || g != 2 {
				t.Errorf("t=%d: alpha:gamma hold %d:%d of the five survivors, want 3:2", sn.VirtualTime, a, g)
			}
		}
	}}
	s, err := newMstate(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 3 {
		t.Fatalf("%d crashes fired, want 3", res.Faults)
	}
	if !split {
		t.Error("no observation mark fell between beta's finish and the next: the 3:2 split went unchecked")
	}
	if a, g := res.Jobs[0].Makespan, res.Jobs[2].Makespan; a >= g {
		t.Errorf("alpha (weight 2) finished at %d, after gamma (weight 1) at %d", a, g)
	}
}

// TestChaosBackoffIsolatesCoTenant: a retry backoff is a wait, not a
// reservation of the shared executive. Under every model, beta — which never
// fails — finishes no later when alpha's one retry waits 20 000 units than
// when it restarts at once. (Charging the restart's Start at failure time
// pushed the serial server's horizon to the restart, and beta's management
// queued behind it for the whole wait.)
func TestChaosBackoffIsolatesCoTenant(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			beta := func(backoff int64) int64 {
				jobs := chaosJobs(t)
				jobs[0].Retry, jobs[0].Backoff = 1, backoff
				spec := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainError, Job: 0, Phase: 1, Granule: 7, Worker: -1}}}
				res, err := runJobs(jobs, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
				if err != nil {
					t.Fatal(err)
				}
				if a := res.Jobs[0]; a.Err != nil || a.Attempts != 2 {
					t.Fatalf("alpha: attempts=%d err=%v, want one successful retry", a.Attempts, a.Err)
				}
				if res.Jobs[1].Err != nil {
					t.Fatalf("beta caught alpha's failure: %v", res.Jobs[1].Err)
				}
				return res.Jobs[1].Makespan
			}
			if at0, waited := beta(0), beta(20_000); waited > at0 {
				t.Errorf("alpha's backoff delayed beta: makespan %d with backoff 20000, %d with none", waited, at0)
			}
		})
	}
}

// TestChaosPreemptBoundCapsBackfill pins the bounded-degradation
// contract: with PreemptBound set, no backfill dispatch exceeds the
// bound, and the measured MaxBackfillTask reports it.
func TestChaosPreemptBoundCapsBackfill(t *testing.T) {
	jobs := chaosJobs(t)
	// Large explicit grain so backfill would exceed the bound without it.
	jobs[0].Opt.Grain = 32
	jobs[1].Opt.Grain = 32
	res, err := runJobs(jobs, Config{Procs: 8, Mgmt: Sharded, PreemptBound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackfillUnits == 0 {
		t.Skip("fixture produced no backfill; bound unexercised")
	}
	if res.MaxBackfillTask > 2 {
		t.Errorf("backfill task of %d granules exceeds PreemptBound 2", res.MaxBackfillTask)
	}
	if res.MaxBackfillTask <= 0 {
		t.Errorf("MaxBackfillTask unmeasured with backfill present")
	}
}

// TestChaosFaultsOffIsBitIdentical proves the injection hooks are inert
// without a campaign: a run with Faults == nil must be bit-identical to
// one with an empty Spec (which compiles to a nil Plan).
func TestChaosFaultsOffIsBitIdentical(t *testing.T) {
	empty := fault.Spec{}
	a, err := runJobs(chaosJobs(t), Config{Procs: 8, Mgmt: Sharded})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runJobs(chaosJobs(t), Config{Procs: 8, Mgmt: Sharded, Faults: &empty})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("an empty fault spec perturbed the schedule")
	}
}

// TestChaosSingleProgramFaults covers injection into a Run: slow and
// stuck grains complete with inflated virtual time, panics and errors
// fail the run, a crash loses capacity but finishes, and a dropped wakeup
// is recovered.
func TestChaosSingleProgramFaults(t *testing.T) {
	build := func() (*core.Program, core.Options) {
		prog, err := workload.Chain(enable.Identity, 3, 64, workload.FixedCost(100), 5)
		if err != nil {
			t.Fatal(err)
		}
		return prog, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	}
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			prog, opt := build()
			clean, err := runProg(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatal(err)
			}

			// Slow grain: completes, strictly more virtual compute.
			prog, opt = build()
			slow := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainSlow, Job: 0, Phase: 1, Granule: 5, Factor: 4}}}
			res, err := runProg(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &slow})
			if err != nil {
				t.Fatalf("slow grain failed the run: %v", err)
			}
			if res.ComputeUnits <= clean.ComputeUnits {
				t.Errorf("slow grain did not inflate compute: %d vs %d", res.ComputeUnits, clean.ComputeUnits)
			}

			// Stuck grain: completes, compute unchanged, makespan no smaller.
			prog, opt = build()
			stall := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainStall, Job: 0, Phase: 0, Granule: 9, Delay: 4000}}}
			res, err = runProg(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &stall})
			if err != nil {
				t.Fatalf("stuck grain failed the run: %v", err)
			}
			if res.ComputeUnits != clean.ComputeUnits {
				t.Errorf("stuck grain changed compute: %d vs %d", res.ComputeUnits, clean.ComputeUnits)
			}
			if res.Makespan < clean.Makespan {
				t.Errorf("stall shrank the makespan: %d vs %d", res.Makespan, clean.Makespan)
			}

			// Grain error: the run fails with the injected error.
			prog, opt = build()
			boom := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 0}}}
			if _, err = runProg(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &boom}); err == nil ||
				!strings.Contains(err.Error(), "injected") {
				t.Errorf("grain error outcome: %v", err)
			}

			// Crash + dropped wakeup + management delay: completes.
			prog, opt = build()
			mixed := fault.Spec{Rules: []fault.Rule{
				{Kind: fault.WorkerCrash, Worker: 1, After: 200},
				{Kind: fault.DropWakeup, Count: 2},
				{Kind: fault.MgmtDelay, Job: -1, Delay: 300},
			}}
			res, err = runProg(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &mixed})
			if err != nil {
				t.Fatalf("mixed campaign failed the run: %v", err)
			}
			if res.ComputeUnits != clean.ComputeUnits {
				t.Errorf("mixed campaign changed compute: %d vs %d", res.ComputeUnits, clean.ComputeUnits)
			}
		})
	}
}
