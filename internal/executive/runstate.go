package executive

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// runState is the run contract every Manager shares: the lock that
// serializes the state machine, the state it guards, and the rules around
// it, stated once. serial and the lane manager embed it and keep only
// their own dispatch and completion paths.
//
//   - The first error wins (failLocked): a later Abort, panic or stall
//     verdict never replaces the error a report may already carry.
//   - A run whose state machine has completed refuses an abort
//     (abortLocked), checked under the lock that serialized the final
//     completion, so there is no window: every Work function ran and the
//     results are valid — a late cancellation must not poison them.
//     Callers observe the refusal through Outcome's nil error.
//   - Nothing moves after the failure point: a manager drops every
//     completion that arrives once err is set, without touching the state
//     machine or the totals — the pool and Job.Wait read both as soon as
//     the job is retired.
//
// The totals are the paper's computation-to-management ratio on hardware:
// compute and tasks count the completions applied to sm, mgmt the time
// spent inside the lock doing management.
type runState struct {
	mu sync.Mutex
	sm StateMachine

	// Guarded by mu.
	err     error
	mgmt    time.Duration
	compute time.Duration // of the tasks counted in tasks
	tasks   int64         // completions applied to sm

	// failed mirrors err != nil for the task paths that read it without
	// the lock on every Enter; the pad keeps it off the cache line the
	// lock and its totals share.
	_      [64]byte
	failed atomic.Bool
}

// enter acquires mu on behalf of a caller whose latest clock reading is
// at, and returns the stamp management time is charged from. Uncontended,
// that is at itself — no wait intervened, so the executive entry starts
// where the caller's previous interval ended and the clock is not read.
// Contended, the clock is read after the acquisition, which is what keeps
// lock wait out of Mgmt.
func (r *runState) enter(at clock.Stamp) clock.Stamp {
	if r.mu.TryLock() {
		return at
	}
	r.mu.Lock()
	return clock.Now()
}

// charge closes the management interval that began at t0 with one clock
// reading and returns it as the start of the next interval. Caller holds
// mu.
func (r *runState) charge(t0 clock.Stamp) clock.Stamp {
	now := clock.Now()
	r.mgmt += now.Sub(t0)
	return now
}

// failLocked records err — the first error wins — and raises the
// lock-free failure flag. Caller holds mu.
func (r *runState) failLocked(err error) {
	if r.err == nil {
		r.err = err
	}
	r.failed.Store(true)
}

// abortLocked fails the run with err unless its state machine has already
// completed. Caller holds mu.
func (r *runState) abortLocked(err error) {
	if r.err == nil && r.sm.Done() {
		return
	}
	r.failLocked(err)
}

func (r *runState) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	t0 := clock.Now()
	r.sm.Start()
	r.charge(t0)
}

// Outcome reports completion and the run error in one lock entry. A
// failed run's state machine is not consulted (a completion-processing
// panic may have left it inconsistent).
func (r *runState) Outcome() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err == nil && r.sm.Done(), r.err
}

// InFlight reports dispatched-but-incomplete tasks: tasks in a ready lane
// or whose completions wait in a completion lane are still in flight from
// the state machine's point of view, so the pool's all-parked stall probe cannot mistake a busy
// manager for a stalled one.
func (r *runState) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sm.InFlight()
}

func (r *runState) Totals() (compute, mgmt time.Duration, tasks int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compute, r.mgmt, r.tasks
}
