package executive_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// The fault plan is consulted in the one manager-agnostic worker loop, so
// every injection test sweeps executive.ManagerKinds() and all managers
// must show identical failure semantics.

func anyRule(k fault.Kind) fault.Rule {
	return fault.Rule{Kind: k, Job: -1, Phase: -1, Worker: -1, Count: 1}
}

// faulted arms spec and the flight recorder on a run.
func faulted(spec fault.Spec) []rundown.Option {
	return []rundown.Option{rundown.WithFaults(spec), rundown.WithTrace(nil)}
}

// countFaults counts KFault firings of kind k in a merged trace.
func countFaults(tr *trace.Trace, k fault.Kind) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Kind == trace.KFault && ev.Arg == int64(k) {
			n++
		}
	}
	return n
}

func TestFaultInjectedErrorAborts(t *testing.T) {
	for _, mk := range executive.ManagerKinds() {
		t.Run(mk.String(), func(t *testing.T) {
			prog, _, _, _ := buildCopyChain(t, 512)
			_, err := run(context.Background(), prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
				executive.Config{Workers: 4, Manager: mk},
				faulted(fault.Spec{Rules: []fault.Rule{anyRule(fault.GrainError)}})...)
			if err == nil {
				t.Fatal("injected error did not fail the run")
			}
			if !strings.Contains(err.Error(), "injected error") {
				t.Fatalf("error does not name the injection: %v", err)
			}
		})
	}
}

func TestFaultInjectedPanicRecovered(t *testing.T) {
	for _, mk := range executive.ManagerKinds() {
		t.Run(mk.String(), func(t *testing.T) {
			prog, _, _, _ := buildCopyChain(t, 512)
			_, err := run(context.Background(), prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
				executive.Config{Workers: 4, Manager: mk},
				faulted(fault.Spec{Rules: []fault.Rule{anyRule(fault.GrainPanic)}})...)
			if err == nil {
				t.Fatal("injected panic did not fail the run")
			}
			if !strings.Contains(err.Error(), "injected panic") {
				t.Fatalf("panic was not surfaced as a run error: %v", err)
			}
		})
	}
}

// TestFaultWorkerCrashGracefulLoss retires workers mid-run and expects the
// survivors to finish every program correctly — capacity loss, no task
// loss, against the exactly-once, enabler-first ledger: a crashed worker
// leaves the census the pool's all-parked probe counts against and the
// home assignment, so the run must neither hang, trip a spurious stall
// verdict, leak the crashed goroutines, nor — the two-job row — starve the
// job the crashed workers were homed on.
func TestFaultWorkerCrashGracefulLoss(t *testing.T) {
	for _, mk := range executive.ManagerKinds() {
		for _, njobs := range []int{1, 2} {
			name := mk.String()
			if njobs == 2 {
				name += "/two-jobs"
			}
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				rule := anyRule(fault.WorkerCrash)
				rule.Count = 3
				r, err := rundown.New(append(faulted(fault.Spec{Rules: []fault.Rule{rule}}),
					rundown.WithWorkers(4), rundown.WithManager(mk))...)
				if err != nil {
					t.Fatal(err)
				}
				jobs := make([]rundown.Job, njobs)
				ledgers := make([]*testutil.Ledger, njobs)
				for i := range jobs {
					jobs[i].Prog, ledgers[i] = testutil.LedgerChain(t, 3, 1<<11)
					jobs[i].Opt = fineOptions(8)
				}
				rep, err := r.RunAll(context.Background(), jobs)
				if err != nil {
					t.Fatalf("crash campaign failed the run: %v", err)
				}
				for i, l := range ledgers {
					l.Check(t)
					if ex := rep.Jobs[i].Exec; ex.Tasks == 0 || ex.Tasks != ex.Sched.Completions {
						t.Errorf("job %d: executed %d tasks, completed %d", i, ex.Tasks, ex.Sched.Completions)
					}
				}
				if n := countFaults(rep.Trace, fault.WorkerCrash); n == 0 {
					t.Error("no WorkerCrash firing recorded")
				}
				testutil.WaitGoroutines(t, before)
			})
		}
	}
}

// TestFaultBoundedDelaysComplete runs a campaign of latency-shaped faults —
// slow grains, stuck grains, a wedged worker, delayed management — and
// expects every manager to finish with correct data. The grain and
// management delays are bounded; the wedge is the pool's, release-gated:
// the watchdog fails the attempt that cannot progress and the retry cures
// it. The retried attempt may overlap the dead one's last tasks, so the
// chain's work is idempotent atomic stores.
func TestFaultBoundedDelaysComplete(t *testing.T) {
	spec := fault.Spec{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.GrainSlow, Job: -1, Phase: -1, Worker: -1, Factor: 4, Count: 2},
		{Kind: fault.GrainStall, Job: -1, Phase: -1, Worker: -1, Delay: 200, Count: 2},
		{Kind: fault.WorkerWedge, Job: -1, Phase: -1, Worker: -1, Delay: 200, Count: 1},
		{Kind: fault.MgmtDelay, Job: -1, Phase: -1, Worker: -1, Delay: 200, Count: 2},
	}}
	for _, mk := range executive.ManagerKinds() {
		t.Run(mk.String(), func(t *testing.T) {
			const n = 1024
			b, c := make([]atomic.Int64, n), make([]atomic.Int64, n)
			prog, err := core.NewProgram(
				&core.Phase{Name: "fill", Granules: n, Enable: enable.NewIdentity(),
					Work: func(g granule.ID) { b[g].Store(int64(g) + 1) }},
				&core.Phase{Name: "double", Granules: n,
					Work: func(g granule.ID) { c[g].Store(b[g].Load() * 2) }},
			)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(context.Background(), prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
				executive.Config{Workers: 4, Manager: mk},
				append(faulted(spec), rundown.WithRetry(1, 0), rundown.WithStallTimeout(40*time.Millisecond))...)
			if err != nil {
				t.Fatalf("latency campaign failed the run: %v", err)
			}
			for g := range c {
				if got, want := c[g].Load(), int64(g+1)*2; got != want {
					t.Fatalf("c[%d] = %d, want %d", g, got, want)
				}
			}
			fired := 0
			for _, k := range []fault.Kind{fault.GrainSlow, fault.GrainStall, fault.WorkerWedge, fault.MgmtDelay} {
				fired += countFaults(rep.Trace, k)
			}
			if fired == 0 {
				t.Error("campaign fired no faults")
			}
		})
	}
}

// TestFaultInjectionOffFastPath pins the injection-off contract: with no
// fault spec the worker loop stays on the plain path, with zero KFault
// events and a correct result.
func TestFaultInjectionOffFastPath(t *testing.T) {
	prog, a, b, c := buildCopyChain(t, 1024)
	rep, err := run(context.Background(), prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
		executive.Config{Workers: 4}, rundown.WithTrace(nil))
	if err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
	for _, ev := range rep.Trace.Events {
		if ev.Kind == trace.KFault {
			t.Fatalf("KFault event on an injection-off run: %+v", ev)
		}
	}
}

// TestFusedEntryUnderFaults drives the fused complete→next entry through
// the fault layer's two chokepoints on it — completions held back before
// they are submitted, and workers that crash between submitting one task
// and taking the next — on every manager, against the exactly-once
// ledger: no task may be lost with a crashed worker or run twice.
func TestFusedEntryUnderFaults(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			crash := anyRule(fault.WorkerCrash)
			crash.Count = 5
			spec := fault.Spec{Rules: []fault.Rule{
				crash,
				{Kind: fault.GrainStall, Job: -1, Phase: -1, Worker: -1, Delay: 100, Count: 4},
				{Kind: fault.MgmtDelay, Job: -1, Phase: -1, Worker: -1, Delay: 100, Count: 4},
			}}
			prog, ledger := testutil.LedgerChain(t, 3, 1<<11)
			rep, err := run(context.Background(), prog, fineOptions(2), conformanceConfig(kind, 8), faulted(spec)...)
			if err != nil {
				t.Fatal(err)
			}
			ledger.Check(t)
			if ex := rep.Exec; ex.Tasks != ex.Sched.Completions || ex.Tasks != ex.Sched.Dispatches {
				t.Errorf("executed %d tasks, dispatched %d, completed %d",
					ex.Tasks, ex.Sched.Dispatches, ex.Sched.Completions)
			}
			if countFaults(rep.Trace, fault.WorkerCrash) == 0 {
				t.Error("no WorkerCrash fired")
			}
			if countFaults(rep.Trace, fault.GrainStall)+countFaults(rep.Trace, fault.MgmtDelay) == 0 {
				t.Error("no completion was held")
			}
		})
	}
}
