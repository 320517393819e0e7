package tenant

// Production-grade tenancy: this file holds the pool's failure-handling
// machinery — per-job deadlines, per-job retry with capped exponential
// backoff, admission control, the wedge watchdog, and the deterministic
// fault-injection hooks that let all of it be exercised on demand.
//
// The attempt model mirrors the simulator's: a job's current scheduler
// and manager belong to its current ATTEMPT. When an attempt dies
// (injected error, work panic, wedge) the old manager is aborted first —
// so every in-flight completion of the dead attempt is dropped at the
// manager's own post-failure gate — and, when retries remain, a fresh
// scheduler+manager pair is swapped in after the backoff. Workers carry
// the (job, driver) pair they took a task from, so a stale worker can
// never submit old-attempt state into a new attempt: its captured driver
// is the aborted one.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/executive"
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

// backoffDur is the capped exponential retry backoff: the first retry
// waits base, each further retry doubles it, capped at 64× base.
func backoffDur(base time.Duration, attempts int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempts - 2 // attempts counts from 1; the first retry is attempt 2
	if shift < 0 {
		shift = 0
	}
	if shift > 6 {
		shift = 6
	}
	return base << shift
}

// capTenantGrain applies Config.PreemptBound to a job's options: the
// task grain — the largest non-preemptible unit a worker can hold, and
// therefore the longest a home job emerging from rundown can wait behind
// an in-flight foreign grain — is capped at bound granules. When Grain
// is unset the core default is materialized first so the cap composes
// with it.
func capTenantGrain(prog *core.Program, opt core.Options, bound int) core.Options {
	if bound <= 0 {
		return opt
	}
	if opt.Grain <= 0 {
		maxG := 1
		for _, ph := range prog.Phases {
			if ph.Granules > maxG {
				maxG = ph.Granules
			}
		}
		w := opt.Workers
		if w <= 0 {
			w = 1
		}
		opt.Grain = (maxG + 2*w - 1) / (2 * w)
		if opt.Grain < 1 {
			opt.Grain = 1
		}
	}
	if opt.Grain > bound {
		opt.Grain = bound
	}
	return opt
}

// ---- fault injection ----

// taskFaults carries one dispatch's injected effects from the
// pre-execute consultation to the post-execute application.
type taskFaults struct {
	factor int64 // compute stretch (GrainSlow × WorkerSlow product)
	stall  int64 // completion withhold in units (GrainStall)
	wedge  bool  // completion withheld until Plan release (WorkerWedge)
	err    error // injected failure (GrainError)
}

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

// injectTask consults the plan for worker- and grain-level faults on one
// dispatch, possibly replacing work with a panicking body (GrainPanic).
// On the pool a WorkerWedge blocks the completion until the Plan is
// released (Close calls ReleaseAll), so only the watchdog or a deadline
// can fail the wedged job — the injected hang the stall machinery exists
// to detect. Only called with a non-nil plan.
func (p *Pool) injectTask(w int, j *Job, task core.Task, work *core.WorkFn, tf *taskFaults) {
	at := time.Since(p.start).Nanoseconds()
	tf.factor = 1
	if _, f, ok := p.plan.Worker(w, at, fault.WorkerSlow); ok {
		p.noteFault(w, j.idx, fault.WorkerSlow)
		tf.factor *= f
	}
	if _, _, ok := p.plan.Worker(w, at, fault.WorkerWedge); ok {
		p.noteFault(w, j.idx, fault.WorkerWedge)
		tf.wedge = true
	}
	k, d, f := p.plan.Grain(j.idx, int(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), at)
	if k == 0 {
		return
	}
	p.noteFault(w, j.idx, k)
	switch k {
	case fault.GrainSlow:
		tf.factor *= f
	case fault.GrainStall:
		tf.stall += d
	case fault.GrainPanic:
		*work = fault.PanicWork(task.Phase)
	case fault.GrainError:
		tf.err = fmt.Errorf("tenant: injected error in job %q phase %d granules [%d,%d)",
			j.cfg.Name, task.Phase, task.Run.Lo, task.Run.Hi)
	}
}

// holdCompletion applies the completion-side faults after the task ran:
// the stuck-grain withhold, the wedge (blocking on the Plan's release
// channel), and the management-submission delay. Only called with a
// non-nil plan.
func (p *Pool) holdCompletion(w int, j *Job, tf *taskFaults) {
	if tf.stall > 0 {
		fault.Sleep(tf.stall)
	}
	if tf.wedge {
		<-p.plan.Release()
	}
	if d, ok := p.plan.Mgmt(j.idx, time.Since(p.start).Nanoseconds()); ok {
		p.noteFault(w, j.idx, fault.MgmtDelay)
		fault.Sleep(d)
	}
}

// ---- failure handling: retry, deadline, watchdog ----

// failAttempt fails job j's attempt owned by driver m with a retryable
// error: abort the manager, then let failJob choose between a retry and
// retirement. Other workers see the manager's error the moment Abort
// lands — before failJob has marked the job as retrying — and would
// retire the job with it (checkFinished), spending no retry; failing
// tells them to stand back until the decision is made.
func (p *Pool) failAttempt(j *Job, m executive.PoolDriver, err error) {
	j.failing.Add(1)
	m.Abort(err)
	merr := m.Err()
	if merr != nil {
		p.failJob(j, m, merr, true)
	}
	j.failing.Add(-1)
	if merr == nil {
		// The abort was refused: the state machine completed first.
		p.checkFinished(j)
	}
}

// failJob handles the failure of job j's attempt owned by driver m
// (which the caller has already aborted, outside p.mu). A retryable,
// non-deadline failure with retries left restarts the job on a fresh
// scheduler after its capped exponential backoff; otherwise the job
// retires with err. A stale call — m is no longer j's current driver —
// is dropped: the attempt it belonged to already died.
func (p *Pool) failJob(j *Job, m executive.PoolDriver, err error, retryable bool) {
	p.mu.Lock()
	if j.finished.Load() || (m != nil && j.driver() != m) {
		p.mu.Unlock()
		return
	}
	if !retryable || j.retriesLeft <= 0 || errors.Is(err, context.DeadlineExceeded) {
		p.finishJobLocked(j, err)
		p.mu.Unlock()
		p.progress()
		return
	}
	j.retriesLeft--
	attempt := int(j.attempts.Add(1))
	p.retries.Add(1)
	if p.met != nil {
		p.met.Retries.Inc(0)
	}
	p.retryWait++
	j.retrying.Store(true)
	// Fold the dead attempt's management time into the job's total before
	// the driver is replaced.
	j.mgmtPrior.Add(int64(m.Mgmt()))
	// Out of the active set while backing off: no worker sweeps it, no
	// home workers are parked on it.
	for i, a := range p.active {
		if a == j {
			p.active = append(p.active[:i], p.active[i+1:]...)
			if p.met != nil {
				p.met.ActiveJobs.Set(int64(len(p.active)))
			}
			p.rebalanceLocked()
			break
		}
	}
	if rec := p.cfg.Trace; rec != nil {
		// The job's trace extent restarts here, before the KRetry: only
		// the last attempt is a schedule (trace.FilterJob cuts at the
		// record), and the cut itself must stay inside the extent.
		j.traceFrom = rec.Cursor()
		rec.Emit(trace.KRetry, rec.Now(), -1, int32(j.idx), -1, 0, 0, int64(attempt))
	}
	p.mu.Unlock()
	time.AfterFunc(backoffDur(j.cfg.Backoff, attempt), func() { p.reactivate(j) })
	p.progress()
}

// reactivate restarts job j on a fresh scheduler+manager pair after its
// retry backoff. A job retired in the meantime (deadline, Abort, Close
// teardown) is left retired — the retry slot is simply returned.
func (p *Pool) reactivate(j *Job) {
	var mgr executive.PoolDriver
	if !j.finished.Load() {
		sched, err := core.New(j.prog, j.opt)
		if err == nil {
			mgr, err = executive.NewPoolDriver(sched, executive.Config{
				Workers: p.cfg.Workers, Manager: p.cfg.Manager,
				DequeCap: p.cfg.DequeCap, Batch: p.cfg.Batch,
				ReadyCap: p.cfg.ReadyCap, LowWater: p.cfg.LowWater,
				Metrics: p.cfg.Metrics,
			})
		}
		if err != nil {
			// Unreachable in practice: the same (prog, opt) compiled at
			// Submit. Retire the job with the recompile error.
			p.mu.Lock()
			p.retryWait--
			p.finishJobLocked(j, fmt.Errorf("tenant: retry of job %q failed to restart: %w", j.cfg.Name, err))
			p.mu.Unlock()
			p.progress()
			return
		}
		if sched != nil {
			j.sched = sched
		}
		if n, ok := mgr.(executive.Notifier); ok {
			n.SetNotify(p.progress)
		}
	}
	p.mu.Lock()
	p.retryWait--
	if j.finished.Load() {
		p.mu.Unlock()
		p.progress()
		return
	}
	j.mgrv.Store(mgr)
	j.retrying.Store(false)
	p.activateLocked(j)
	p.mu.Unlock()
	p.progress()
}

// deadlineFire aborts job j — and only j — when its deadline timer
// fires: the error wraps context.DeadlineExceeded and never retries.
func (p *Pool) deadlineFire(j *Job) {
	p.killJob(j, fmt.Errorf("tenant: job %q exceeded its deadline of %v: %w",
		j.cfg.Name, j.cfg.Deadline, context.DeadlineExceeded))
}

// killJob fails one job with err without retrying it — the shared body
// of the deadline timer and the explicit Job.Abort. A job still queued
// behind admission control (or backing off between attempts) is retired
// directly; a running job is aborted through its manager, which refuses
// if the state machine already completed — a job that beat the abort
// keeps its results.
//
// The whole thing loops because the abort races concurrent attempt
// failures: if a retry swaps in a fresh driver between the driver()
// capture and the Abort, the abort lands on the dead attempt and failJob
// drops it as stale — and the caller fires only once, so without
// re-firing here the new attempt would outlive the abort unbounded.
// Each pass either retires the job or observes an attempt swap, so the
// loop is bounded by the retry budget.
func (p *Pool) killJob(j *Job, err error) {
	for {
		p.mu.Lock()
		if j.finished.Load() {
			p.mu.Unlock()
			return
		}
		queued := false
		for i, q := range p.waitq {
			if q == j {
				p.waitq = append(p.waitq[:i], p.waitq[i+1:]...)
				queued = true
				break
			}
		}
		if queued || j.retrying.Load() {
			p.finishJobLocked(j, err)
			p.mu.Unlock()
			p.progress()
			return
		}
		m := j.driver()
		p.mu.Unlock()
		// The abort happens outside p.mu (manager locks and the async
		// notify path re-enter the pool), exactly as in Pool.Abort.
		m.Abort(err)
		if merr := m.Err(); merr == nil {
			p.checkFinished(j)
			p.progress()
			return
		} else {
			p.failJob(j, m, merr, false)
		}
		if j.finished.Load() {
			p.progress()
			return
		}
		// failJob dropped the abort as stale: m's attempt already died and
		// a retry owns the job now. Go again against the current attempt.
	}
}

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
			if j.finished.Load() || j.retrying.Load() {
				continue
			}
			lt := j.lastTouch.Load()
			if lt == 0 || now-lt < int64(timeout) {
				continue
			}
			m := j.driver()
			inflight := m.InFlight()
			if inflight == 0 {
				continue
			}
			err := fmt.Errorf("tenant: job %q wedged: no progress for %v with %d tasks in flight",
				j.cfg.Name, time.Duration(now-lt), inflight)
			p.failAttempt(j, m, err) // retires j instead if it finished since the probe
			p.progress()
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
