package executive

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/trace"
)

// serial is the paper-baseline Manager: a single mutex guards every state
// machine interaction, exactly serializing management the way the single
// UNIVAC executive did. The time spent inside the lock is measured as
// management time, so the paper's computation-to-management ratio can be
// observed on real hardware.
//
// A worker enters the executive once per task: Enter reports the finished
// task and takes the next one in a single critical section, the way a PAX
// processor did — one lock, one wakeup, two clock readings.
type serial struct {
	mu   sync.Mutex
	cond *sync.Cond

	sm      StateMachine
	workers int
	rec     *trace.Recorder // flight recorder (nil = tracing off)

	// Accumulators, guarded by mu.
	mgmt    time.Duration
	idle    time.Duration
	waiting int
	err     error
}

func newSerial(sm StateMachine, cfg Config) *serial {
	m := &serial{sm: sm, workers: cfg.Workers, rec: cfg.Trace}
	m.cond = sync.NewCond(&m.mu)
	return m
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
// whatever the ask. Parked peers are woken once, after the completion (it
// is what may have released work for them). A completion arriving after
// the run failed (abort, cancellation, panic) is dropped without touching
// the state machine: the run's results are void, and nothing may mutate
// the state machine after the failure point — Job.Wait and the report path
// read its statistics as soon as the job is retired.
func (m *serial) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	t0 := enter(&m.mu, at)
	defer m.mu.Unlock()
	applied := done.ID != 0 && m.err == nil
	if applied {
		m.completeLocked(done)
	}
	if ask == AskNone {
		if !applied {
			// Nothing was done: charge nothing. A failed run's Mgmt must
			// not move under a report already built from it.
			return core.Task{}, t0, false, false
		}
		now := clock.Now()
		m.mgmt += now.Sub(t0)
		return core.Task{}, now, false, true
	}
	t, now, ok := m.nextLocked(w, t0, ask == AskWait)
	return t, now, ok, applied
}

// nextLocked dispatches one task to worker w. The caller holds mu and has
// charged nothing since t0; every exit closes that management interval
// with one reading, which is also the stamp returned — the dispatched
// task's compute-start.
func (m *serial) nextLocked(w int, t0 clock.Stamp, park bool) (core.Task, clock.Stamp, bool) {
	for {
		if m.err != nil {
			return core.Task{}, t0, false
		}
		task, _, ok := m.sm.NextTask()
		if ok {
			now := clock.Now()
			m.mgmt += now.Sub(t0)
			return task, now, true
		}
		if m.sm.Done() {
			m.wake()
			break
		}

		// Idle executive moment: absorb deferred successor-splitting
		// management tasks before parking.
		if m.sm.HasDeferred() {
			_, _ = m.sm.DeferredMgmt()
			m.wake()
			continue
		}

		if !park {
			break
		}

		// Park until a completion or release makes work available. If
		// every worker is parked with nothing in flight, the scheduler
		// has stalled — a bug its liveness guarantees should prevent;
		// fail loudly instead of deadlocking.
		if m.waiting+1 == m.workers && m.sm.InFlight() == 0 {
			m.err = fmt.Errorf("executive: stalled at phase %d: all workers idle, nothing in flight",
				m.sm.CurrentPhase())
			recordAbort(m.rec)
			m.wake()
			break
		}
		// The management interval ends where the idle one begins, and the
		// next management interval begins where the idle one ends.
		i0 := clock.Now()
		m.mgmt += i0.Sub(t0)
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KPark, m.rec.At(i0), int32(w), 0, -1, 0, 0, 0)
		}
		m.waiting++
		m.cond.Wait()
		m.waiting--
		t0 = clock.Now()
		m.idle += t0.Sub(i0)
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KUnpark, m.rec.At(t0), int32(w), 0, -1, 0, 0, int64(t0-i0))
		}
	}
	now := clock.Now()
	m.mgmt += now.Sub(t0)
	return core.Task{}, now, false
}

// wake releases every parked worker. Workers park only in nextLocked,
// under mu and counted in waiting, so the broadcast is skipped when
// nobody can be listening. Caller holds mu.
func (m *serial) wake() {
	if m.waiting > 0 {
		m.cond.Broadcast()
	}
}

// completeLocked applies one completion and wakes parked peers. A panic
// in completion processing fails the run. Caller holds mu, m.err == nil.
func (m *serial) completeLocked(t core.Task) {
	if err := applyCompletion(m.sm, t); err != nil {
		m.err = err
		recordAbort(m.rec)
	}
	m.wake()
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
	if m.err == nil && m.sm.Done() {
		return
	}
	if m.err == nil {
		m.err = err
		recordAbort(m.rec)
	}
	m.cond.Broadcast()
}

func (m *serial) Mgmt() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mgmt
}

func (m *serial) Idle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idle
}
