package tenant

import (
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/executive"
)

// This file is the cross-job dispatch policy. Two decisions live here:
//
//   - home assignment (rebalanceLocked): workers are divided among the
//     active jobs in proportion to their weights, largest remainders
//     settled by priority then submit order. A worker serves its home job
//     exclusively while anything there is dispatchable, so a job's
//     critical path is driven by a stable worker set and its makespan
//     stays close to running alone.
//   - backfill order (backfillPlan): a worker whose home job is in
//     rundown offers its idle capacity to the other jobs — higher
//     priority first, then larger deficit-round-robin credit, submit
//     order as the final tie-break. Backfill draws down the serving
//     job's credit by the task's granule count; credit replenishes by
//     weight when every candidate is exhausted.

// homeCache is a worker-local snapshot of the home assignment, refreshed
// only when the pool's epoch changes, so the hot path (home job has work)
// costs one atomic load instead of a pool-lock acquisition per task.
type homeCache struct {
	epoch uint64
	home  *Job
	valid bool
}

// home returns worker w's current home job (nil when no job is active).
func (p *Pool) home(w int, c *homeCache) *Job {
	e := p.epoch.Load()
	if c.valid && c.epoch == e {
		return c.home
	}
	p.mu.Lock()
	c.home = p.homes[w]
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
// it arrives from pool-level work — the home lookup, the backfill plan,
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
	plan := p.backfillPlan(home)
	if len(plan) > 0 {
		at = clock.Now()
	}
	for _, cand := range plan {
		ca := cand.cur.Load()
		if t, at, ok = p.enter(w, ca, core.Task{}, at, executive.AskTry); ok {
			p.mu.Lock()
			cand.deficit -= int64(t.Run.Len())
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

// backfillPlan snapshots the backfill candidates for a worker homed on
// home, ordered by the dispatch policy. Replenishes every active job's
// deficit-round-robin credit when the candidates are collectively
// exhausted.
func (p *Pool) backfillPlan(home *Job) []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Nobody to backfill (every dry sweep of a one-job pool): no allocation.
	if n := len(p.active); n == 0 || n == 1 && p.active[0] == home {
		return nil
	}
	cands := make([]*Job, 0, len(p.active))
	credit := false
	for _, j := range p.active {
		if j == home {
			continue
		}
		cands = append(cands, j)
		if j.deficit > 0 {
			credit = true
		}
	}
	if !credit {
		for _, j := range p.active {
			j.deficit += int64(j.cfg.Weight) * drrQuantum
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].cfg.Priority != cands[b].cfg.Priority {
			return cands[a].cfg.Priority > cands[b].cfg.Priority
		}
		if cands[a].deficit != cands[b].deficit {
			return cands[a].deficit > cands[b].deficit
		}
		return cands[a].idx < cands[b].idx
	})
	return cands
}

// rebalanceLocked reassigns worker homes over the active jobs by weighted
// largest-remainder: every job gets floor(W * weight / totalWeight) home
// workers, leftovers go to the highest (priority, remainder, submit
// order). With more jobs than workers the overflow jobs hold no home
// workers and progress through backfill only. Only live workers are
// handed homes (see crash). Caller holds p.mu.
func (p *Pool) rebalanceLocked() {
	defer p.epoch.Add(1)
	n := len(p.active)
	if n == 0 {
		for i := range p.homes {
			p.homes[i] = nil
		}
		return
	}
	total := 0
	for _, j := range p.active {
		total += j.cfg.Weight
	}
	w := len(p.alive)
	type share struct {
		j    *Job
		n    int
		rem  int
		prio int
	}
	shares := make([]share, n)
	assigned := 0
	for i, j := range p.active {
		exact := w * j.cfg.Weight
		shares[i] = share{j: j, n: exact / total, rem: exact % total, prio: j.cfg.Priority}
		assigned += shares[i].n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := shares[order[a]], shares[order[b]]
		if sa.prio != sb.prio {
			return sa.prio > sb.prio
		}
		return sa.rem > sb.rem
	})
	for i := 0; assigned < w; i = (i + 1) % n {
		shares[order[i]].n++
		assigned++
	}
	slot := 0
	for _, s := range shares {
		for k := 0; k < s.n; k++ {
			p.homes[p.alive[slot]] = s.j
			slot++
		}
	}
}
