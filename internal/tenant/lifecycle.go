package tenant

// The job lifecycle (DESIGN.md §5 has the diagram): one state word per
// job, Queued → Running ⇄ Backoff → Done | Failed; one attempt object per
// scheduler instantiation; and one function (settle) that decides what the
// end of an attempt means.
//
// The state changes only under Pool.mu, only through move, and only along
// an edge of the table below; anything else panics, so a new lifecycle bug
// is a test failure, not one more flag. Everything a worker, Wait, a
// report or the stall probe needs from the running program — its
// scheduler, its manager, its number, the totals of the attempts before it
// — hangs off one immutable attempt, read with one pointer load,
// so no reader can pair one attempt's manager with another's scheduler. A
// worker carries the attempt it took a task from and completes to that
// attempt's manager; after a retry that manager is the aborted one, whose
// post-failure gate drops the stale completion.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/trace"
)

// State is a job's lifecycle state.
type State uint32

const (
	// Queued: admitted, waiting for an active slot (admission control).
	Queued State = iota
	// Running: in the active set; workers are served from its attempt.
	Running
	// Backoff: the last attempt failed and the retry timer is pending.
	Backoff
	// Done: retired with its results.
	Done
	// Failed: retired with an error.
	Failed

	nStates = int(Failed) + 1
)

// String is the wire form of the state — the service's status field. A
// job between attempts reads "running": to its submitter it still is.
func (s State) String() string {
	return [nStates]string{"queued", "running", "running", "done", "failed"}[s]
}

// legal is the transition table: legal[from][to].
var legal = [nStates][nStates]bool{
	Queued:  {Running: true, Failed: true},
	Running: {Backoff: true, Done: true, Failed: true},
	Backoff: {Running: true, Failed: true},
}

// moved, when non-nil, observes every transition; probed every verdict of
// park's all-workers-parked probe (the number of jobs it found stalled).
// Only tests set them.
var (
	moved  func(from, to State)
	probed func(stalled int)
)

// move is the only writer of a job's state. Caller holds the pool's mu and
// names the state it believes the job is in; a wrong belief or an edge
// missing from the table is a bug in the pool and panics.
func move(j *Job, from, to State) {
	if cur := j.State(); cur != from || !legal[from][to] {
		panic(fmt.Sprintf("tenant: job %q in state %d: illegal transition %d -> %d",
			j.cfg.Name, cur, from, to))
	}
	j.state.Store(uint32(to))
	if moved != nil {
		moved(from, to)
	}
}

// attempt is one instantiation of a job's program: a fresh scheduler, the
// manager built over it, and what came before. Immutable once built.
type attempt struct {
	job   *Job
	n     int // 1 for the first attempt
	sched *core.Scheduler
	mgr   executive.Manager
	prior totals // of attempts 1..n-1
}

// totals is what a job's managers measured: the compute time and count of
// the tasks whose completions they applied, and their management time.
type totals struct {
	compute, mgmt time.Duration
	tasks         int64
}

// totals is the job's totals up to and including this attempt: one entry
// of the manager's lock, so the three agree with each other, and with a
// done Outcome read after it. A dead attempt's compute and tasks stopped
// moving when it failed, so the next attempt carries them as a constant.
func (a *attempt) totals() totals {
	c, m, n := a.mgr.Totals()
	return totals{a.prior.compute + c, a.prior.mgmt + m, a.prior.tasks + n}
}

// newAttempt compiles j's program into the attempt that follows prev (nil
// for the first). Called outside p.mu: compiling is the expensive part.
func (p *Pool) newAttempt(j *Job, prev *attempt) (*attempt, error) {
	sched, err := core.New(j.prog, j.opt)
	if err != nil {
		return nil, err
	}
	// Options.AdaptiveBatch selects a management model in virtual time
	// only: on goroutines the sharded manager runs fixed parameters.
	mgr, err := executive.NewManager(sched, executive.Config{
		Workers: p.cfg.Workers, Manager: p.cfg.Manager,
		DequeCap: p.cfg.DequeCap, Batch: p.cfg.Batch,
		Metrics: p.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	// Async managers make progress on their own management goroutine —
	// completions apply and refills land where no pool worker sees them —
	// so the pool registers its progress bump as the manager's notify
	// callback: parked workers wake and re-sweep when the job's
	// management goroutine produces work or finishes the job.
	mgr.SetNotify(p.progress)
	a := &attempt{job: j, n: 1, sched: sched, mgr: mgr}
	if prev != nil {
		a.n, a.prior = prev.n+1, prev.totals()
	}
	return a, nil
}

// transient marks an error the pool hands to a manager's Abort as one a
// fresh attempt may cure: a work error or panic, an injected error, a
// wedge. Everything else a manager can record — a deadline, an abort, a
// stall, its own completion-processing panic — is final. Because the mark
// rides on the error the manager keeps (first Abort wins), whoever reads
// the outcome reaches the same verdict; settle strips it again, so no
// caller of Wait or Close ever sees it.
type transient struct{ error }

// settle ends attempt a if its manager says it is over. The common answer
// — still going — costs one manager lock entry and no pool lock.
func (p *Pool) settle(a *attempt) {
	if done, err := a.mgr.Outcome(); done || err != nil {
		p.mu.Lock()
		p.settleLocked(a)
		p.mu.Unlock()
	}
}

// settleLocked is the one place an attempt's end is decided: a pure
// function of what a's manager recorded and the job's remaining retry
// budget. No error retires the job Done; a transient error with budget
// left sends it to Backoff and arms the retry; any other error retires it
// Failed. A call about an attempt that is no longer the job's running one
// is stale and does nothing. Caller holds p.mu.
func (p *Pool) settleLocked(a *attempt) {
	j := a.job
	if j.cur.Load() != a || j.State() != Running {
		return
	}
	done, err := a.mgr.Outcome()
	if !done && err == nil {
		return
	}
	t, retry := err.(transient)
	if retry {
		err = t.error
	}
	if !retry || j.retriesLeft <= 0 || errors.Is(err, context.DeadlineExceeded) {
		p.retire(j, err)
		return
	}
	j.retriesLeft--
	next := a.n + 1
	j.attempts.Store(int32(next))
	p.retries.Add(1)
	if p.met != nil {
		p.met.Retries.Inc(0)
	}
	// Out of the active set while backing off: no worker sweeps it, no
	// home workers are parked on it.
	move(j, Running, Backoff)
	p.deactivate(j)
	if rec := p.cfg.Trace; rec != nil {
		// The job's trace extent restarts here, before the KRetry: only
		// the last attempt is a schedule (trace.FilterJob cuts at the
		// record), and the cut itself must stay inside the extent.
		j.traceFrom = rec.Cursor()
		rec.Emit(trace.KRetry, rec.Now(), -1, int32(j.idx), -1, 0, 0, int64(next))
	}
	p.backoff[j] = time.AfterFunc(core.Backoff(j.cfg.Backoff, next), func() { p.reactivate(j) })
	p.gen.Add(1)
	p.cond.Broadcast()
}

// reactivate is the retry timer's body: compile the next attempt, then —
// if the job is still waiting for it — publish it and start it. The
// attempt pointer changes nowhere else.
func (p *Pool) reactivate(j *Job) {
	a, err := p.newAttempt(j, j.cur.Load())
	p.mu.Lock()
	switch {
	case j.State() != Backoff: // retired as the timer fired: nothing to start
	case err != nil:
		// Unreachable in practice: the same (prog, opt) compiled at Submit.
		p.retire(j, fmt.Errorf("tenant: retry of job %q failed to restart: %w", j.cfg.Name, err))
	default:
		j.cur.Store(a)
		p.activate(j, Backoff)
	}
	p.mu.Unlock()
	p.progress()
}

// activate starts job j's current attempt and puts the job in the active
// set — from Queued when a slot is free, from Backoff when the retry
// timer fires. Caller holds p.mu.
func (p *Pool) activate(j *Job, from State) {
	move(j, from, Running)
	if rec := p.cfg.Trace; rec != nil {
		if j.traceFrom == nil {
			j.traceFrom = rec.Cursor()
		}
		rec.Emit(trace.KStart, rec.Now(), -1, int32(j.idx), -1, 0, 0, 0)
	}
	if from == Backoff {
		delete(p.backoff, j)
	} else {
		// The submit-to-start gap is the admission-control queue wait.
		j.queueWaitNS = int64(time.Since(j.submitted))
		if p.met != nil {
			p.met.QueueWait.Observe(j.queueWaitNS)
		}
	}
	j.cur.Load().mgr.Start()
	if p.watchOn {
		j.lastTouch.Store(int64(clock.Now()))
	}
	p.active = append(p.active, j)
	if p.met != nil {
		p.met.ActiveJobs.Set(int64(len(p.active)))
	}
	p.pol.Add(&j.pol)
	p.epoch.Add(1)
	// A worker whose dry sweep predates j must sweep again, not find j
	// idle in park's stall probe before the caller's progress() lands.
	p.gen.Add(1)
}

// deactivate takes j out of the active set and reassigns its home
// workers. Caller holds p.mu.
func (p *Pool) deactivate(j *Job) {
	if i := slices.Index(p.active, j); i >= 0 {
		p.active = slices.Delete(p.active, i, i+1)
	}
	if p.met != nil {
		p.met.ActiveJobs.Set(int64(len(p.active)))
	}
	p.pol.Remove(&j.pol)
	p.epoch.Add(1)
}

// retire is the one terminal transition: Done when err is nil, Failed
// otherwise, from whichever state the job is in. It records the end time
// and error, gives the job's slot to the queue, and releases waiters.
// Caller holds p.mu.
func (p *Pool) retire(j *Job, err error) {
	from, to := j.State(), Done
	if err != nil {
		to = Failed
	}
	move(j, from, to)
	j.end = time.Now()
	j.err = err
	if j.deadline != nil {
		j.deadline.Stop()
	}
	if rec := p.cfg.Trace; rec != nil {
		k := trace.KFinish
		if err != nil {
			k = trace.KAbort
		}
		if j.traceFrom == nil {
			// Retired while still queued: the extent is this one record.
			j.traceFrom = rec.Cursor()
		}
		rec.Emit(k, rec.Now(), -1, int32(j.idx), -1, 0, 0, 0)
		j.traceTo = rec.Cursor()
	}
	switch from {
	case Queued:
		// Never ran (deadline, abort): the whole life was queue wait.
		j.queueWaitNS = int64(j.end.Sub(j.submitted))
	case Running:
		p.deactivate(j)
	case Backoff:
		// The retry is cancelled; a timer already fired stands down on
		// the state.
		p.backoff[j].Stop()
		delete(p.backoff, j)
	}
	if p.met != nil {
		p.met.JobsDone.Inc(0)
		if errors.Is(err, context.DeadlineExceeded) {
			p.met.DeadlineMisses.Inc(0)
		} else if err == nil && j.cfg.Deadline > 0 {
			p.met.DeadlineMargin.Observe(int64(j.cfg.Deadline - j.end.Sub(j.submitted)))
		}
		if j.cfg.Class != "" {
			p.met.Class(j.cfg.Class).Done.Inc(0)
		}
	}
	// Waiters go before the queue: starting the next job can take a while,
	// and a poller that saw the terminal state is already in Wait.
	close(j.done)
	// The freed slot admits queued jobs in submit order.
	for len(p.waitq) > 0 && (p.cfg.MaxActive <= 0 || len(p.active) < p.cfg.MaxActive) {
		next := p.waitq[0]
		p.waitq = p.waitq[1:]
		p.activate(next, Queued)
	}
	p.gen.Add(1)
	p.cond.Broadcast()
}

// kill fails one job with err for good — the body of the deadline timer,
// Job.Abort and Pool.Abort. A running attempt is aborted through its
// manager under p.mu (the order the stall probe already takes the two
// locks in), so the job cannot change attempts between the abort and the
// verdict: a job whose state machine completed first refuses the abort
// and keeps its results; one whose attempt had already failed on its own
// lands in Backoff, where — like a job that was waiting there, or in the
// admission queue — there is no manager to ask and it retires directly.
// A finished job is left untouched. Caller holds p.mu.
func (p *Pool) kill(j *Job, err error) {
	if err == nil {
		err = errors.New("tenant: job aborted") // Failed needs a reason
	}
	if j.State() == Running {
		a := j.cur.Load()
		a.mgr.Abort(err)
		p.settleLocked(a)
	}
	switch j.State() {
	case Queued:
		if i := slices.Index(p.waitq, j); i >= 0 {
			p.waitq = slices.Delete(p.waitq, i, i+1)
		}
		fallthrough
	case Backoff:
		p.retire(j, err)
	}
}
