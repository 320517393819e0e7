package executive

// Deterministic fault injection on the real goroutine backend. The same
// fault.Plan the simulator consults in virtual time is consulted here at
// the matching chokepoints, with wall-clock effects bounded by
// fault.Sleep so a campaign can never turn a run into a sleep marathon:
//
//   - grain faults strike in the worker loop around execute: a slow grain
//     (and a slow worker) stretches the task's measured compute, a stuck
//     grain withholds the completion, a panicking grain replaces the work
//     function with one that panics — exercising the engine's recover
//     machinery end to end — and an erroring grain aborts with an
//     injected error before execute runs;
//   - worker crash retires the goroutine after its completion is
//     submitted: graceful capacity loss, no task lost. The manager is
//     told through Retire, for its stall census and per-worker state;
//   - management faults delay a completion's submission (MgmtDelay).
//     DropWakeup and the unbounded wedge are pool/simulator concepts —
//     the plain executive has no watchdog to recover them, so injecting
//     them here would trade a priced fault for a hang.
//
// Every firing is flight-recorded as a KFault event (Arg = fault.Kind).

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Retire removes w from the serial stall census. Serial keeps no
// per-worker state to flush; the broadcast re-evaluates the all-parked
// check under the new worker count.
func (m *serial) Retire(w int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workers--
	m.cond.Broadcast()
}

// Retire flushes w's completion batch and removes it from the sharded
// stall census. Tasks still in w's deque stay where they are — they are
// stealable, and the broadcast sends every parked peer through one more
// steal sweep so they are picked up even when no future completion would
// have woken anyone.
func (m *sharded) Retire(w int) {
	t0 := m.enter(clock.Now())
	defer m.mu.Unlock()
	m.flushLocked(w)
	m.mgmt += clock.Now().Sub(t0)
	m.workers--
	m.cond.Broadcast()
}

// Retire rings the management doorbell. The async manager has no
// worker census (its stall probe runs on the management goroutine
// against InFlight) and no worker-local state — completions were already
// queued before the crash point.
func (m *async) Retire(w int) { m.ring() }

// noteFault flight-records and counts one injected fault firing.
func (e *engine) noteFault(w int, k fault.Kind, at clock.Stamp) {
	if e.rec != nil {
		e.rec.Ring(w).Record(trace.KFault, e.rec.At(at), int32(w), 0, -1, 0, 0, int64(k))
	}
	e.met.Faults.Inc(w)
}

// injectTask consults the plan for one dispatch at stamp now (a Rule's
// After field reads as nanoseconds since the run started), possibly
// replacing work with a panicking body (GrainPanic) or returning the
// injected failure (GrainError). Only called with a non-nil plan.
func (e *engine) injectTask(w int, task core.Task, work *core.WorkFn, now clock.Stamp) (fault.Effects, error) {
	fx := e.plan.Dispatch(w, 0, int(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi),
		int64(now-e.start), func(k fault.Kind) { e.noteFault(w, k, now) })
	switch fx.Grain {
	case fault.GrainPanic:
		*work = fault.PanicWork(task.Phase)
	case fault.GrainError:
		return fx, fmt.Errorf("executive: injected error in phase %d granules [%d,%d)",
			task.Phase, task.Run.Lo, task.Run.Hi)
	}
	return fx, nil
}

// beforeComplete withholds the completion (stuck grain; a wedged worker —
// on the plain executive a bounded withhold, the pool's release-gated
// wedge needs a stall probe or deadline above it) and delays its
// submission to management (MgmtDelay). It returns the reading taken after
// the holds, so they are charged to nobody's management time. Only called
// with a non-nil plan.
func (e *engine) beforeComplete(w int, fx fault.Effects) clock.Stamp {
	fault.Sleep(fx.Stall + fx.Wedge)
	now := clock.Now()
	if d, ok := e.plan.Mgmt(0, int64(now-e.start)); ok {
		e.noteFault(w, fault.MgmtDelay, now)
		fault.Sleep(d)
		now = clock.Now()
	}
	return now
}

// crashing reports whether a WorkerCrash rule fires for worker w at
// stamp now — consulted at the fused executive entry, whose crash
// chokepoint sits between its two halves: the worker enters with AskNone
// to submit its completion, retires, and never asks for work again, so no
// task is lost and none is taken that will not run. The last
// live worker refuses (the rule is consumed but ignored). Only called
// with a non-nil plan.
func (e *engine) crashing(w int, now clock.Stamp) bool {
	if _, _, ok := e.plan.Worker(w, int64(now-e.start), fault.WorkerCrash); !ok {
		return false
	}
	if e.live.Add(-1) < 1 {
		e.live.Add(1)
		return false
	}
	e.noteFault(w, fault.WorkerCrash, now)
	return true
}
