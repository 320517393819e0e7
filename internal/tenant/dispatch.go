package tenant

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/executive"
)

// This file is how a worker consults the cross-job dispatch policy
// (share.Policy, DESIGN.md §5.2): the home job through a worker-local cache,
// the backfill candidates through a walk copied out under the pool lock.

// homeCache is a worker-local snapshot of the home assignment, refreshed
// only when the pool's epoch changes, so the hot path (home job has work)
// costs one atomic load instead of a pool-lock acquisition per task. plan is
// the worker's reused backfill buffer (see backfill).
type homeCache struct {
	epoch uint64
	home  *Job
	valid bool
	plan  []*Job
}

// home returns worker w's current home job (nil when no job is active).
func (p *Pool) home(w int, c *homeCache) *Job {
	if c.valid && c.epoch == p.epoch.Load() {
		return c.home
	}
	p.mu.Lock()
	p.homeLocked(w, c)
	p.mu.Unlock()
	return c.home
}

// homeLocked re-reads worker w's home from the policy into c. Caller holds
// p.mu, under which the epoch moves.
func (p *Pool) homeLocked(w int, c *homeCache) {
	c.home = nil
	if h := p.pol.Home(w); h != nil {
		c.home = p.jobs[h.ID]
	}
	c.epoch = p.epoch.Load()
	c.valid = true
}

// sweep makes one pass over the dispatch policy for worker w: home job
// first, then the backfill candidates in policy order. ok=false means
// nothing was dispatchable anywhere at sweep time. The returned attempt
// is the one the task was taken from — the worker completes to its
// manager, even if a retry swaps the job's attempt in the meantime. now is
// the last stamp a manager handed back (the dispatch stamp when ok).
//
// last is the attempt w's previous task came from (nil after a dry sweep).
// Its completions must not linger in w's batch while w works elsewhere — a
// job's final completions would otherwise wait for w's next dry sweep,
// stretching that job's observed makespan — so they are flushed before the
// first probe of any other attempt: before, not after that probe hands out
// a task, because a task in hand is an open compute stretch and the flush
// is last's management.
//
// The sweep does not chain the worker's previous reading into its probes:
// it arrives from pool-level work — the home lookup, the backfill walk,
// the pool lock behind both — that is no job's management, and a manager
// entered without contention charges from the stamp it is handed. So the
// clock is read afresh before the home probe and again after the plan.
func (p *Pool) sweep(w int, c *homeCache, last *attempt) (a *attempt, t core.Task, backfill bool, now clock.Stamp, ok bool) {
	home := p.home(w, c)
	at := clock.Now()
	// probe asks j's current attempt for a task, leaving last first.
	probe := func(j *Job) *attempt {
		ca := j.cur.Load()
		at, last = p.leave(w, last, ca, at)
		t, at, ok = p.enter(w, ca, core.Task{}, at, executive.AskTry)
		return ca
	}
	if home != nil {
		if ha := probe(home); ok {
			return ha, t, false, at, true
		}
	}
	moved, plan := p.backfill(w, home, c)
	if moved != nil || len(plan) > 0 {
		at = clock.Now()
	}
	if moved != nil {
		// The policy gave w a new home since the probe above — typically a
		// job activated in between — and it is probed as what it is: found
		// only in the walk below, its task would be booked as backfill.
		if ha := probe(moved); ok {
			return ha, t, false, at, true
		}
	}
	for _, cand := range plan {
		if ca := probe(cand); ok {
			p.mu.Lock()
			p.pol.Charge(&cand.pol, t.Run.Len())
			p.mu.Unlock()
			return ca, t, true, at, true
		}
	}
	return nil, core.Task{}, false, at, false
}

// leave flushes worker w's batched completions at last, the attempt it
// last worked for, when it is about to probe a different one, next. It
// returns the chain's latest stamp and what is left to flush: nil once it
// has been done.
func (p *Pool) leave(w int, last, next *attempt, at clock.Stamp) (clock.Stamp, *attempt) {
	if last == nil || last == next {
		return at, last
	}
	at, applied := last.mgr.Flush(w, at)
	if applied {
		p.settle(last)
		p.progress()
	}
	return at, nil
}

// enter is the pool's one call into a job's executive: worker w reports
// done (the zero Task for a bare probe) to attempt a and asks for a task.
// A task handed out under the manager's own serialization proves the
// attempt neither finished nor failed, so the outcome is consulted only
// when none came back: a dry ask, or an applied completion, may have ended
// the attempt. Parked workers are woken only when a batch was actually
// applied — a completion that merely joined the worker's local batch
// cannot have released successor work, and waking the pool for each one
// would defeat the point of completion batching. A dispatch wakes nobody
// and is no progress event (see Pool.gen): the fast path of a home task
// touches nothing the pool shares.
func (p *Pool) enter(w int, a *attempt, done core.Task, at clock.Stamp, ask executive.Ask) (core.Task, clock.Stamp, bool) {
	t, now, ok, applied := a.mgr.Enter(w, done, at, ask)
	if !ok && (applied || ask != executive.AskNone) {
		p.settle(a)
	}
	if applied {
		p.progress()
	}
	return t, now, ok
}

// backfill copies worker w's policy walk, less its home job, into the
// worker's own buffer under the pool lock, so the managers are probed
// outside it and a dry sweep allocates nothing. The home is re-read under
// the same lock entry: probed is the home the sweep has just probed, and
// moved is the one the policy names now when that is another job (nil
// otherwise) — a job activated between the two pool-lock entries of one
// sweep must not turn up in the walk of the worker it is home to.
func (p *Pool) backfill(w int, probed *Job, c *homeCache) (moved *Job, plan []*Job) {
	c.plan = c.plan[:0]
	p.mu.Lock()
	p.homeLocked(w, c)
	wk := p.pol.Start(w)
	for cand := p.pol.Next(&wk); cand != nil; cand = p.pol.Next(&wk) {
		if j := p.jobs[cand.ID]; j != c.home {
			c.plan = append(c.plan, j)
		}
	}
	p.mu.Unlock()
	if c.home != probed {
		moved = c.home
	}
	return moved, c.plan
}
