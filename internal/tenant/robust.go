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
