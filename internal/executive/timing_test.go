package executive

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// TestReportTimeAccounting: a worker's life is partitioned by its clock
// chain into compute, management, idle and (uncharged) lock wait, so on
// every manager the three reported totals are non-negative and fit inside
// the machine: Compute + Mgmt + Idle <= capacity × Wall. The async
// manager's management goroutine is a processor of its own, outside
// Workers and the utilization denominator, so its capacity is P+1. The 2%
// allowance covers Start, which is management before any worker exists.
func TestReportTimeAccounting(t *testing.T) {
	for _, kind := range ManagerKinds() {
		for _, p := range []int{1, 2, 4} {
			prog, ledger := fineChain(t, 3, 1<<12)
			cfg := conformanceConfig(kind, p)
			rep, err := Run(prog, fineOptions(2), cfg)
			if err != nil {
				t.Fatalf("%v P=%d: %v", kind, p, err)
			}
			ledger.check(t)
			if rep.Compute < 0 || rep.Mgmt < 0 || rep.Idle < 0 {
				t.Errorf("%v P=%d: negative share in %v", kind, p, rep)
			}
			capacity := p
			if kind == AsyncManager {
				capacity++
			}
			sum := rep.Compute + rep.Mgmt + rep.Idle
			if limit := time.Duration(float64(capacity) * float64(rep.Wall) * 1.02); sum > limit {
				t.Errorf("%v P=%d: compute+mgmt+idle = %v exceeds %d × wall × 1.02 = %v (%v)",
					kind, p, sum, capacity, limit, rep)
			}
		}
	}
}

// sleepSM is a StateMachine of n independent tasks whose completion
// processing takes about a millisecond — long enough that two workers
// always contend for the serial manager's lock. It times its own sleeps:
// that total is what the manager must report as management time. Called
// only under the manager's serialization.
type sleepSM struct {
	n, dispatched, completed int
	slept                    time.Duration
}

func (s *sleepSM) Start() core.Cost { return 0 }
func (s *sleepSM) NextTask() (core.Task, core.Cost, bool) {
	if s.dispatched == s.n {
		return core.Task{}, 0, false
	}
	s.dispatched++
	return core.Task{ID: s.dispatched}, 0, true
}
func (s *sleepSM) NextTasks(dst []core.Task, max int) ([]core.Task, core.Cost) {
	for ; max > 0; max-- {
		t, _, ok := s.NextTask()
		if !ok {
			break
		}
		dst = append(dst, t)
	}
	return dst, 0
}
func (s *sleepSM) Complete(core.Task) core.Cost {
	t0 := clock.Now()
	time.Sleep(time.Millisecond)
	s.slept += clock.Now().Sub(t0)
	s.completed++
	return 0
}
func (s *sleepSM) CompleteBatch(ts []core.Task) core.Cost {
	for _, t := range ts {
		s.Complete(t)
	}
	return 0
}
func (s *sleepSM) DeferredMgmt() (core.Cost, bool) { return 0, false }
func (s *sleepSM) HasDeferred() bool               { return false }
func (s *sleepSM) Done() bool                      { return s.completed == s.n }
func (s *sleepSM) InFlight() int                   { return s.dispatched - s.completed }
func (s *sleepSM) ReadyTasks() int                 { return s.n - s.dispatched }
func (s *sleepSM) CurrentPhase() int               { return 0 }
func (s *sleepSM) Stats() core.Stats               { return core.Stats{} }

// TestSerialMgmtExcludesLockWait: with two workers contending for a
// serial executive whose every entry takes a millisecond, each worker
// spends as long waiting for the lock as inside it. Mgmt must be the time
// inside — the state machine's own total — not twice that.
func TestSerialMgmtExcludesLockWait(t *testing.T) {
	sm := &sleepSM{n: 40}
	mgr := newSerial(sm, Config{Workers: 2})
	if err := driveWorkers(mgr, 2); err != nil {
		t.Fatal(err)
	}
	if sm.completed != sm.n {
		t.Fatalf("completed %d of %d tasks", sm.completed, sm.n)
	}
	mgmt := mgr.Mgmt()
	if mgmt < sm.slept {
		t.Errorf("Mgmt %v is less than the %v spent inside completion processing", mgmt, sm.slept)
	}
	if limit := sm.slept + sm.slept/4; mgmt > limit {
		t.Errorf("Mgmt %v for %v of completion processing: lock wait is being charged as management", mgmt, sm.slept)
	}
}

// TestFusedEntryUnderFaults drives the fused complete→next entry through
// the fault layer's two chokepoints on it — completions held back before
// they are submitted, and workers that crash between submitting one task
// and taking the next — on every manager, against the exactly-once
// ledger: no task may be lost with a crashed worker or run twice.
func TestFusedEntryUnderFaults(t *testing.T) {
	for _, kind := range ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			crash := anyRule(fault.WorkerCrash)
			crash.Count = 5
			spec := fault.Spec{Rules: []fault.Rule{
				crash,
				{Kind: fault.GrainStall, Job: -1, Phase: -1, Worker: -1, Delay: 100, Count: 4},
				{Kind: fault.MgmtDelay, Job: -1, Phase: -1, Worker: -1, Delay: 100, Count: 4},
			}}
			prog, ledger := fineChain(t, 3, 1<<11)
			cfg := conformanceConfig(kind, 8)
			cfg.Faults = &spec
			cfg.Trace = trace.NewRecorder(trace.Meta{}, 8)
			rep, err := Run(prog, fineOptions(2), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ledger.check(t)
			if rep.Tasks != rep.Sched.Completions || rep.Tasks != rep.Sched.Dispatches {
				t.Errorf("executed %d tasks, dispatched %d, completed %d",
					rep.Tasks, rep.Sched.Dispatches, rep.Sched.Completions)
			}
			tr := cfg.Trace.Take()
			if countFaults(tr, fault.WorkerCrash) == 0 {
				t.Error("no WorkerCrash fired")
			}
			if countFaults(tr, fault.GrainStall)+countFaults(tr, fault.MgmtDelay) == 0 {
				t.Error("no completion was held")
			}
		})
	}
}

// panicSM is sleepSM's program with completion processing that panics on
// the third task.
type panicSM struct{ sleepSM }

func (s *panicSM) Complete(core.Task) core.Cost {
	if s.completed++; s.completed == 3 {
		panic("state machine poisoned")
	}
	return 0
}

func (s *panicSM) CompleteBatch(ts []core.Task) core.Cost {
	for _, t := range ts {
		s.Complete(t)
	}
	return 0
}

// TestCompletionPanicFailsRun: a panic inside completion processing —
// under the manager's lock, on whichever goroutine applies completions —
// must surface as the run error on every manager and release every
// worker, not take the process down or strand a parked peer.
func TestCompletionPanicFailsRun(t *testing.T) {
	for _, kind := range ManagerKinds() {
		mgr, err := NewManager(&panicSM{sleepSM{n: 64}}, conformanceConfig(kind, 4))
		if err != nil {
			t.Fatal(err)
		}
		err = driveWorkers(mgr, 4)
		if err == nil || !strings.Contains(err.Error(), "completion processing panicked: state machine poisoned") {
			t.Errorf("%v: run error %v, want the completion panic", kind, err)
		}
	}
}
