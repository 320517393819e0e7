package executive

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

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

// TestSerialMgmtExcludesLockWait: with two workers contending for an
// executive whose every completion takes a millisecond, a worker spends as
// long waiting for the manager's lock as inside it. Mgmt must be the time
// inside — the state machine's own total — not twice that, under every
// manager (serial: each entry; sharded: each batch flush; async: the
// management goroutine's cycles, which no worker waits inside at all).
func TestSerialMgmtExcludesLockWait(t *testing.T) {
	for _, kind := range ManagerKinds() {
		sm := &sleepSM{n: 40}
		mgr, err := newTestManager(sm, conformanceConfig(kind, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := driveWorkers(mgr, 2, nil); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sm.completed != sm.n {
			t.Fatalf("%v: completed %d of %d tasks", kind, sm.completed, sm.n)
		}
		_, mgmt, _ := mgr.Totals()
		if mgmt < sm.slept {
			t.Errorf("%v: Mgmt %v is less than the %v spent inside completion processing", kind, mgmt, sm.slept)
		}
		if limit := sm.slept + sm.slept/4; mgmt > limit {
			t.Errorf("%v: Mgmt %v for %v of completion processing: lock wait is being charged as management", kind, mgmt, sm.slept)
		}
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
// must surface as the run error on every manager, not take the process
// down.
func TestCompletionPanicFailsRun(t *testing.T) {
	for _, kind := range ManagerKinds() {
		mgr, err := newTestManager(&panicSM{sleepSM{n: 64}}, conformanceConfig(kind, 4))
		if err != nil {
			t.Fatal(err)
		}
		err = driveWorkers(mgr, 4, nil)
		if err == nil || !strings.Contains(err.Error(), "completion processing panicked: state machine poisoned") {
			t.Errorf("%v: run error %v, want the completion panic", kind, err)
		}
	}
}
