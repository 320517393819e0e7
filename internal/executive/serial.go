package executive

import (
	"sync"
	"time"

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
	mu sync.Mutex
	sm StateMachine

	// Guarded by mu.
	mgmt    time.Duration
	compute time.Duration // of the tasks counted in tasks
	tasks   int64         // completions applied to sm
	open    []clock.Stamp // per worker: its open compute stretch's start, 0 = none
	err     error
}

func newSerial(sm StateMachine, workers int) *serial {
	return &serial{sm: sm, open: make([]clock.Stamp, workers)}
}

// enter acquires mu on behalf of a caller whose latest clock reading is
// at, and returns the stamp management time is charged from. Uncontended,
// that is at itself — no wait intervened, so the executive entry starts
// where the caller's previous interval ended and the clock is not read.
// Contended, the clock is read after the acquisition, which is what keeps
// lock wait out of Mgmt.
func enter(mu *sync.Mutex, at clock.Stamp) clock.Stamp {
	if mu.TryLock() {
		return at
	}
	mu.Lock()
	return clock.Now()
}

func (m *serial) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	t0 := clock.Now()
	m.sm.Start()
	m.mgmt += clock.Now().Sub(t0)
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
	t0 := enter(&m.mu, at)
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
		m.err = applyCompletion(m.sm, done)
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
	now := clock.Now()
	m.mgmt += now.Sub(t0)
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

// Outcome reports completion and the run error in one lock entry. A
// failed run's state machine is not consulted (a completion-processing
// panic may have left it inconsistent).
func (m *serial) Outcome() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil && m.sm.Done(), m.err
}

// InFlight reports dispatched-but-incomplete tasks.
func (m *serial) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sm.InFlight()
}

// Abort terminates the run with err. A run whose state machine has
// already completed refuses the abort (checked under the same lock that
// serialized the completion, so there is no window): every Work
// function ran and the results are valid — a late cancellation must not
// poison them. Callers observe the refusal through Outcome's nil error.
func (m *serial) Abort(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil && !m.sm.Done() {
		m.err = err
	}
}

func (m *serial) Totals() (compute, mgmt time.Duration, tasks int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compute, m.mgmt, m.tasks
}
