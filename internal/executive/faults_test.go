package executive

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// faultManagers is the set every injection test sweeps: the fault plan is
// consulted in the manager-agnostic worker loop, so all three managers
// must show identical failure semantics.
var faultManagers = []ManagerKind{SerialManager, ShardedManager, AsyncManager}

func anyRule(k fault.Kind) fault.Rule {
	return fault.Rule{Kind: k, Job: -1, Phase: -1, Worker: -1, Count: 1}
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
	for _, mk := range faultManagers {
		t.Run(mk.String(), func(t *testing.T) {
			prog, _, _, _ := buildCopyChain(t, 512)
			_, err := Run(prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
				Config{Workers: 4, Manager: mk,
					Faults: &fault.Spec{Rules: []fault.Rule{anyRule(fault.GrainError)}}})
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
	for _, mk := range faultManagers {
		t.Run(mk.String(), func(t *testing.T) {
			prog, _, _, _ := buildCopyChain(t, 512)
			_, err := Run(prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
				Config{Workers: 4, Manager: mk,
					Faults: &fault.Spec{Rules: []fault.Rule{anyRule(fault.GrainPanic)}}})
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
// survivors to finish the program correctly: capacity loss, no task loss.
// Retire keeps each manager's stall census sound, so the run
// must neither hang nor trip a spurious stall abort.
func TestFaultWorkerCrashGracefulLoss(t *testing.T) {
	for _, mk := range faultManagers {
		t.Run(mk.String(), func(t *testing.T) {
			rule := anyRule(fault.WorkerCrash)
			rule.Count = 3
			rec := trace.NewRecorder(trace.Meta{}, 4)
			prog, a, b, c := buildCopyChain(t, 2048)
			rep, err := Run(prog, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()},
				Config{Workers: 4, Manager: mk, Trace: rec,
					Faults: &fault.Spec{Rules: []fault.Rule{rule}}})
			if err != nil {
				t.Fatalf("crash campaign failed the run: %v", err)
			}
			checkCopyChain(t, a, b, c)
			if rep.Tasks == 0 {
				t.Fatal("no tasks recorded")
			}
			if n := countFaults(rec.Take(), fault.WorkerCrash); n == 0 {
				t.Error("no WorkerCrash firing recorded")
			}
		})
	}
}

// TestFaultBoundedDelaysComplete runs a campaign of purely latency-shaped
// faults — slow grains, stuck grains, wedged workers, delayed management —
// and expects every manager to finish with correct data: on the plain
// executive these are bounded delays, never hangs.
func TestFaultBoundedDelaysComplete(t *testing.T) {
	spec := fault.Spec{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.GrainSlow, Job: -1, Phase: -1, Worker: -1, Factor: 4, Count: 2},
		{Kind: fault.GrainStall, Job: -1, Phase: -1, Worker: -1, Delay: 200, Count: 2},
		{Kind: fault.WorkerWedge, Job: -1, Phase: -1, Worker: -1, Delay: 200, Count: 1},
		{Kind: fault.MgmtDelay, Job: -1, Phase: -1, Worker: -1, Delay: 200, Count: 2},
	}}
	for _, mk := range faultManagers {
		t.Run(mk.String(), func(t *testing.T) {
			rec := trace.NewRecorder(trace.Meta{}, 4)
			prog, a, b, c := buildCopyChain(t, 1024)
			if _, err := Run(prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
				Config{Workers: 4, Manager: mk, Trace: rec, Faults: &spec}); err != nil {
				t.Fatalf("latency campaign failed the run: %v", err)
			}
			checkCopyChain(t, a, b, c)
			tr := rec.Take()
			fired := 0
			for _, k := range []fault.Kind{fault.GrainSlow, fault.GrainStall, fault.WorkerWedge, fault.MgmtDelay} {
				fired += countFaults(tr, k)
			}
			if fired == 0 {
				t.Error("campaign fired no faults")
			}
		})
	}
}

// TestFaultInjectionOffFastPath pins the injection-off contract: a nil
// Faults spec must leave the engine on the plain path with zero KFault
// events and a correct result.
func TestFaultInjectionOffFastPath(t *testing.T) {
	rec := trace.NewRecorder(trace.Meta{}, 4)
	prog, a, b, c := buildCopyChain(t, 1024)
	if _, err := Run(prog, core.Options{Grain: 16, Overlap: true, Costs: core.DefaultCosts()},
		Config{Workers: 4, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
	for _, ev := range rec.Take().Events {
		if ev.Kind == trace.KFault {
			t.Fatalf("KFault event on an injection-off run: %+v", ev)
		}
	}
}
