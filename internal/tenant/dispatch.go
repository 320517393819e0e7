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
	e := p.epoch.Load()
	if c.valid && c.epoch == e {
		return c.home
	}
	p.mu.Lock()
	c.home = nil
	if h := p.pol.Home(w); h != nil {
		c.home = p.jobs[h.ID]
	}
	c.epoch = p.epoch.Load()
	c.valid = true
	p.mu.Unlock()
	return c.home
}

// sweep makes one pass over the dispatch policy for worker w: home job
// first, then the backfill candidates in policy order. ok=false means
// nothing was dispatchable anywhere at sweep time. The returned attempt
// is the one the task was taken from — the worker completes to its
// manager, even if a retry swaps the job's attempt in the meantime. now is
// the last stamp a manager handed back (the dispatch stamp when ok).
//
// The sweep does not chain the worker's previous reading into its probes:
// it arrives from pool-level work — the home lookup, the backfill walk,
// the pool lock behind both — that is no job's management, and a manager
// entered without contention charges from the stamp it is handed. So the
// clock is read afresh before the home probe and again after the plan.
func (p *Pool) sweep(w int, c *homeCache) (a *attempt, t core.Task, backfill bool, now clock.Stamp, ok bool) {
	home := p.home(w, c)
	at := clock.Now()
	if home != nil {
		ha := home.cur.Load()
		if t, at, ok = p.enter(w, ha, core.Task{}, at, executive.AskTry); ok {
			return ha, t, false, at, true
		}
	}
	plan := p.backfill(w, home, c)
	if len(plan) > 0 {
		at = clock.Now()
	}
	for _, cand := range plan {
		ca := cand.cur.Load()
		if t, at, ok = p.enter(w, ca, core.Task{}, at, executive.AskTry); ok {
			p.mu.Lock()
			p.pol.Charge(&cand.pol, t.Run.Len())
			p.mu.Unlock()
			return ca, t, true, at, true
		}
	}
	return nil, core.Task{}, false, at, false
}

// enter is the pool's one call into a job's executive: worker w reports
// done (the zero Task for a bare probe) to attempt a and asks for a task.
// A task handed out under the manager's own serialization proves the
// attempt neither finished nor failed, so the outcome is consulted only
// when none came back: a dry ask, or an applied completion, may have ended
// the attempt. Parked workers are woken only when a batch was actually
// applied — a completion that merely joined the worker's local batch
// cannot have released successor work, and waking the pool for each one
// would defeat the point of completion batching.
func (p *Pool) enter(w int, a *attempt, done core.Task, at clock.Stamp, ask executive.Ask) (core.Task, clock.Stamp, bool) {
	t, now, ok, applied := a.mgr.Enter(w, done, at, ask)
	switch {
	case ok:
		p.gen.Add(1)
	case applied || ask != executive.AskNone:
		p.settle(a)
	}
	if applied {
		p.progress()
	}
	return t, now, ok
}

// backfill copies worker w's policy walk, less the home job it has just
// probed, into the worker's own buffer under the pool lock, so the managers
// are probed outside it and a dry sweep allocates nothing.
func (p *Pool) backfill(w int, home *Job, c *homeCache) []*Job {
	c.plan = c.plan[:0]
	p.mu.Lock()
	wk := p.pol.Start(w)
	for cand := p.pol.Next(&wk); cand != nil; cand = p.pol.Next(&wk) {
		if j := p.jobs[cand.ID]; j != home {
			c.plan = append(c.plan, j)
		}
	}
	p.mu.Unlock()
	return c.plan
}
