package executive

import (
	"repro/internal/clock"
	"repro/internal/core"
)

// serial is the paper-baseline Manager: a single mutex guards every state
// machine interaction, exactly serializing management the way the single
// UNIVAC executive did. The time spent inside the lock is measured as
// management time, so the paper's computation-to-management ratio can be
// observed on real hardware.
//
// A worker enters the executive once per task: Enter reports the finished
// task and takes the next one in a single critical section, the way a PAX
// processor did — one lock, two clock readings. Every task is management,
// so every compute stretch is one task long.
type serial struct {
	runState
	open []clock.Stamp // per worker, guarded by mu: its open compute stretch's start, 0 = none
}

func newSerial(sm StateMachine, workers int) *serial {
	return &serial{runState: runState{sm: sm}, open: make([]clock.Stamp, workers)}
}

// Enter is the fused executive entry: completion processing for done,
// then the dispatch of the worker's next task, in one critical section
// opened by one reading — at, taken here when the caller did not, where w's
// compute stretch closes — and closed by one more: the stamp returned, a
// dispatched task's compute-start. A completion arriving after the run
// failed (abort, cancellation, panic) is dropped without touching the state
// machine or the totals: the run's results are void, and nothing may move
// after the failure point — Job.Wait and the report path read both as soon
// as the job is retired.
func (m *serial) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	at = at.OrNow()
	t0 := m.enter(at)
	defer m.mu.Unlock()
	opened := m.open[w]
	m.open[w] = 0
	applied := done.ID != 0 && m.err == nil
	if applied {
		m.tasks++
		if opened != 0 {
			m.compute += at.Sub(opened)
		}
		// A panic in completion processing fails the run.
		if err := applyCompletion(m.sm, done); err != nil {
			m.failLocked(err)
		}
	}
	if !applied && (ask == AskNone || m.err != nil) {
		// Nothing was done: charge nothing. A failed run's Mgmt must not
		// move under a report already built from it.
		return core.Task{}, t0, false, false
	}
	var next core.Task
	ok := false
	if ask == AskTry {
		next, ok = m.nextLocked()
	}
	now := m.charge(t0)
	if ok {
		m.open[w] = now
	}
	return next, now, ok, applied
}

// nextLocked dispatches one task, absorbing deferred successor-splitting
// management — an idle executive moment — before declaring the state
// machine dry. Caller holds mu.
func (m *serial) nextLocked() (core.Task, bool) {
	for m.err == nil {
		if task, _, ok := m.sm.NextTask(); ok {
			return task, true
		}
		if m.sm.Done() || !m.sm.HasDeferred() {
			break
		}
		_, _ = m.sm.DeferredMgmt()
	}
	return core.Task{}, false
}

// Flush is a no-op: serial completions are submitted immediately. So are
// Join (no management goroutine) and SetNotify (all progress happens
// inside Enter).
func (m *serial) Flush(w int, at clock.Stamp) (clock.Stamp, bool) { return at, false }
func (m *serial) Join()                                           {}
func (m *serial) SetNotify(func())                                {}

// Abort terminates the run with err; the run contract (runState) refuses
// it once the state machine has completed.
func (m *serial) Abort(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abortLocked(err)
}
