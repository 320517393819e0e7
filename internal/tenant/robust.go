package tenant

// Production-grade tenancy: this file holds the pool's failure-handling
// machinery — per-job deadlines, per-job retry with capped exponential
// backoff, admission control, the wedge watchdog, and the deterministic
// fault-injection hooks that let all of it be exercised on demand.
//
// The job lifecycle itself — states, attempts, and the one function that
// decides between a retry and retirement — is in lifecycle.go.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// ErrPoolClosed is the sentinel wrapped by Submit on a closed pool
// (test with errors.Is).
var ErrPoolClosed = errors.New("tenant: pool is closed")

// ErrPoolSaturated is the sentinel wrapped by Submit when admission
// control rejects a job: MaxActive jobs are already active and the pool
// was not configured to queue (test with errors.Is).
var ErrPoolSaturated = errors.New("tenant: pool saturated")

// defaultStallTimeout is the watchdog threshold selected when a fault
// campaign is configured without an explicit StallTimeout: injected
// wedges must be detectable or they would hang the suite.
const defaultStallTimeout = 250 * time.Millisecond

// ---- fault injection ----

// noteFault flight-records and counts one injected fault firing against
// job ji.
func (p *Pool) noteFault(w, ji int, k fault.Kind) {
	if rec := p.cfg.Trace; rec != nil {
		rec.Ring(w).Record(trace.KFault, rec.Now(), int32(w), int32(ji), -1, 0, 0, int64(k))
	}
	if p.met != nil {
		p.met.Faults.Inc(w)
	}
}

// planTime is the time the fault plan is consulted at: nanoseconds since
// the pool started, on the pool's interval clock. It is read only when
// some rule has an After; otherwise every rule is due from the outset and
// the time is 0. Only called with a non-nil plan.
func (p *Pool) planTime() int64 {
	if !p.plan.Timed() {
		return 0
	}
	return clock.Now().Sub(p.startAt).Nanoseconds()
}

// injectTask consults the plan for one dispatch, possibly replacing work
// with a panicking body (GrainPanic) or returning the injected failure
// (GrainError). Only called with a non-nil plan.
func (p *Pool) injectTask(w int, j *Job, task core.Task, work *core.WorkFn) (fault.Effects, error) {
	fx := p.plan.DispatchCrash(w, j.idx, int(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi),
		p.planTime(), func(k fault.Kind) { p.noteFault(w, j.idx, k) })
	switch fx.Grain {
	case fault.GrainPanic:
		*work = fault.PanicWork(task.Phase)
	case fault.GrainError:
		return fx, fmt.Errorf("tenant: injected error in job %q phase %d granules [%d,%d)",
			j.cfg.Name, task.Phase, task.Run.Lo, task.Run.Hi)
	}
	return fx, nil
}

// holdCompletion applies the faults that hold a finished task's completion
// back on the worker: the stuck-grain withhold and the wedge. Both end
// before the task's compute-end reading, so they count as its compute. On
// the pool a WorkerWedge blocks the completion until the Plan is released
// (Close calls ReleaseAll), so only the watchdog or a deadline can fail the
// wedged job — the injected hang the stall machinery exists to detect. Only
// called with a non-nil plan.
func (p *Pool) holdCompletion(fx fault.Effects) {
	fault.Sleep(fx.Stall)
	if fx.Wedged {
		// A captive never submits this completion to a live attempt and may
		// enter no lock again before the retry rewrites the granules it
		// just wrote. Entering p.mu — which reactivate holds when it swaps
		// the next attempt in — orders the captive's writes before every
		// task of that attempt. (A task of the dead attempt still *running*
		// when the swap happens has no such edge: ROADMAP 2(c), open.)
		p.mu.Lock()
		p.mu.Unlock()
		<-p.plan.Release()
	}
}

// delayCompletion consults the plan for a management-submission delay on
// j's next completion and returns the reading the completing entry is
// charged from. That reading is taken after the consultation, so the
// consultation and the per-task records before it are the tail of the
// task's compute and an armed plan alone adds nothing to a job's management
// time; and before the delay, which is thereby management wherever the
// entry that follows is (the serial manager; a sharded flush or refill) and
// otherwise falls where any gap between a stamped task's end and the next
// dispatch falls. Only called with a non-nil plan.
func (p *Pool) delayCompletion(w int, j *Job) clock.Stamp {
	d, ok := p.plan.Mgmt(j.idx, p.planTime())
	at := clock.Now()
	if ok {
		p.noteFault(w, j.idx, fault.MgmtDelay)
		fault.Sleep(d)
	}
	return at
}

// ---- failure handling: retry, deadline, watchdog ----

// watchdog is the pool's liveness probe, running while StallTimeout is
// enabled. Each tick it re-wakes parked workers (the recovery path an
// injected dropped wakeup is priced against) and sweeps the active jobs
// for wedges: a job with tasks in flight and no dispatch or completion
// for a full StallTimeout is failed as wedged — without flagging healthy
// co-tenants, whose own lastTouch stays fresh.
func (p *Pool) watchdog(timeout time.Duration) {
	defer close(p.watchDone)
	tick := timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.watchStop:
			return
		case <-t.C:
		}
		p.mu.Lock()
		jobs := append([]*Job(nil), p.active...)
		// Bare re-wake, no gen bump: a worker that parked behind a
		// dropped wakeup re-sweeps; one that parked legitimately finds
		// nothing and parks again.
		p.cond.Broadcast()
		p.mu.Unlock()
		now := int64(clock.Now())
		for _, j := range jobs {
			lt := j.lastTouch.Load()
			if j.State() != Running || lt == 0 || now-lt < int64(timeout) {
				continue
			}
			a := j.cur.Load()
			inflight := a.mgr.InFlight()
			if inflight == 0 {
				continue
			}
			// Refused if the job finished since the probe; settle then
			// retires it with its results.
			a.mgr.Abort(transient{fmt.Errorf("tenant: job %q wedged: no progress for %v with %d tasks in flight",
				j.cfg.Name, time.Duration(now-lt), inflight)})
			p.settle(a)
		}
	}
}

// stopWatchdog stops the watchdog goroutine and joins it. Safe to call
// when no watchdog was started.
func (p *Pool) stopWatchdog() {
	if p.watchStop == nil {
		return
	}
	close(p.watchStop)
	<-p.watchDone
}
