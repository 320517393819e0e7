// Package share is the cross-job dispatch policy of a shared machine: which
// job gets which processor. The goroutine pool (internal/tenant, under its
// lock) and the virtual-time engine (internal/sim, on its one thread) drive
// the same Policy through the same methods, so a what-if priced in virtual
// time is priced under the rule the hardware runs. DESIGN.md §5.2 states the
// policy; this package is it:
//
//   - every live worker has a home job. Workers are apportioned over the live
//     jobs by weighted largest remainder: floor(W·weight/Σweight) each, the
//     leftovers one apiece by (priority desc, remainder desc, ID asc). A
//     worker serves its home job while anything there is dispatchable;
//   - a worker whose home job has nothing to hand out walks the other live
//     jobs by (priority desc, credit desc, ID asc). A backfill dispatch
//     draws the serving job's credit down by its granule count, and when the
//     asker's backfill set is collectively out of credit every live job
//     earns Quantum·weight — deficit round robin, so spare capacity is
//     shared in proportion to weight within a priority class.
//
// A Policy keeps no clock and takes no lock: its caller serializes it.
package share

import (
	"cmp"
	"slices"
)

// Quantum is the backfill credit, in granules, one weight unit earns per
// replenishment round.
const Quantum = 64

// Job is one job's standing in the policy. The caller owns it (embedded in
// its own job record), fills in the exported fields before Add, and leaves
// them alone while the job is live.
type Job struct {
	// ID is the job's submit index: the final tie-break of every ordering,
	// which makes each a strict total order.
	ID int
	// Priority orders leftover home workers and backfill, higher first.
	Priority int
	// Weight is the job's share of home workers and of backfill credit
	// (>= 1).
	Weight int

	deficit int64 // backfill credit in granules; kept across Remove/Add
	homes   int   // home workers held (0 while not live)
	rem     int   // apportion's remainder scratch
	live    bool
}

// Homes reports how many workers are homed on j (0 unless j is live).
func (j *Job) Homes() int { return j.homes }

// Policy is the live job set, the live worker set and the home map between
// them.
type Policy struct {
	live  []*Job  // ascending ID
	alive []int32 // workers not retired, ascending
	home  []*Job  // per worker; nil for a retired worker or an empty live set

	// order caches the live jobs sorted by the backfill comparator. It is
	// re-sorted only when a walk passes its home job while dirty — set by a
	// live-set change or a replenishment — so the common ask never touches
	// it; a backfill charge moves the one job it changed (Charge). credit
	// counts live jobs with positive credit, which makes the replenishment
	// check O(1): an asker's backfill set is the live set minus its home.
	order  []*Job
	dirty  bool
	credit int

	rank []*Job // apportion's leftover ranking scratch
}

// New returns the policy of a machine of workers workers and no jobs.
func New(workers int) *Policy {
	p := &Policy{alive: make([]int32, workers), home: make([]*Job, workers)}
	for w := range p.alive {
		p.alive[w] = int32(w)
	}
	return p
}

// Add puts j in the live set and re-apportions the home workers.
func (p *Policy) Add(j *Job) {
	if j.live {
		return
	}
	j.live = true
	p.live = slices.Insert(p.live, p.index(j), j)
	if j.deficit > 0 {
		p.credit++
	}
	p.dirty = true
	p.apportion()
}

// Remove takes j out of the live set — finished, failed, or waiting out a
// retry backoff — and re-apportions its home workers. A walk already inside
// the cached order still offers j; its caller finds it dry.
func (p *Policy) Remove(j *Job) {
	if !j.live {
		return
	}
	j.live, j.homes = false, 0
	i := p.index(j)
	p.live = slices.Delete(p.live, i, i+1)
	if j.deficit > 0 {
		p.credit--
	}
	p.dirty = true
	p.apportion()
}

// index is where j sits, or belongs, in the live set.
func (p *Policy) index(j *Job) int {
	i, _ := slices.BinarySearchFunc(p.live, j.ID, func(l *Job, id int) int { return cmp.Compare(l.ID, id) })
	return i
}

// RetireWorker takes worker w out of the machine for good and re-apportions
// the survivors.
func (p *Policy) RetireWorker(w int) {
	if i, ok := slices.BinarySearch(p.alive, int32(w)); ok {
		p.alive = slices.Delete(p.alive, i, i+1)
		p.apportion()
	}
}

// Retired reports whether worker w was retired.
func (p *Policy) Retired(w int) bool {
	_, ok := slices.BinarySearch(p.alive, int32(w))
	return !ok
}

// LiveWorkers is the number of workers not retired.
func (p *Policy) LiveWorkers() int { return len(p.alive) }

// Home returns worker w's home job: nil when no job is live or w is retired.
func (p *Policy) Home(w int) *Job { return p.home[w] }

// apportion hands every live worker a home by weighted largest remainder.
// With more jobs than workers the overflow jobs hold no home workers and
// progress through backfill only.
func (p *Policy) apportion() {
	clear(p.home)
	if len(p.live) == 0 {
		return
	}
	total := 0
	for _, j := range p.live {
		total += j.Weight
	}
	w := len(p.alive)
	left := w
	for _, j := range p.live {
		exact := w * j.Weight
		j.homes, j.rem = exact/total, exact%total
		left -= j.homes
	}
	// The floors fall short of w by less than one worker per job.
	p.rank = append(p.rank[:0], p.live...)
	slices.SortFunc(p.rank, func(a, b *Job) int {
		return cmp.Or(cmp.Compare(b.Priority, a.Priority), cmp.Compare(b.rem, a.rem), cmp.Compare(a.ID, b.ID))
	})
	for _, j := range p.rank[:left] {
		j.homes++
	}
	slot := 0
	for _, j := range p.live {
		for k := 0; k < j.homes; k++ {
			p.home[p.alive[slot]] = j
			slot++
		}
	}
}

// Charge draws j's credit down by a backfill dispatch of granules granules
// and, while the cached order is otherwise valid, moves j alone to its new
// place in it: every backfill dispatch charges, and a re-sort per charge
// was most of a multi-job run's policy time.
func (p *Policy) Charge(j *Job, granules int) {
	p.credits(j, -int64(granules))
	if p.dirty {
		return // re-sorted when a walk next opens it
	}
	i := slices.Index(p.order, j)
	if i < 0 {
		return // j is not live
	}
	// A charge only lowers credit, so j only moves toward the end.
	for ; i+1 < len(p.order) && backfillOrder(p.order[i+1], j) < 0; i++ {
		p.order[i] = p.order[i+1]
	}
	p.order[i] = j
}

// backfillOrder is the backfill comparator: priority desc, credit desc,
// ID asc.
func backfillOrder(a, b *Job) int {
	return cmp.Or(cmp.Compare(b.Priority, a.Priority), cmp.Compare(b.deficit, a.deficit), cmp.Compare(a.ID, b.ID))
}

// credits applies a credit change to j, keeping the census of live jobs in
// credit exact. The caller keeps the cached order.
func (p *Policy) credits(j *Job, delta int64) {
	was := j.deficit > 0
	j.deficit += delta
	if now := j.deficit > 0; now != was && j.live {
		if now {
			p.credit++
		} else {
			p.credit--
		}
	}
}

// Walk is one ask's walk over the jobs its worker may take work from: home
// first, then the backfill candidates in policy order, yielded lazily. The
// home job almost always dispatches, so the usual ask pays the O(1)
// replenishment check in Start and one Next, and never looks at the cached
// order. One walk is open at a time.
//
// The walk is order-equivalent to sorting the asker's backfill set when the
// ask starts (TestQuickAgainstReference): replenishment still happens in
// Start, because later asks' orders depend on when it happened, and between
// Start and the Next that opens the order the caller only probes the home
// job, which touches no credit and can retire no job but home itself —
// which the walk skips either way.
type Walk struct {
	// Home is the asker's home job when the walk began (nil = none); a
	// dispatch from any other job is backfill.
	Home *Job
	k    int // next index into Policy.order, or walkHome / walkOrder
}

const (
	walkHome  = -2 // the home job has not been offered yet
	walkOrder = -1 // home is behind; the cached order has not been opened yet
)

// Start begins worker w's walk, replenishing every live job's credit by
// Quantum·Weight when w's backfill set is non-empty and collectively out of
// credit.
func (p *Policy) Start(w int) Walk {
	wk := Walk{Home: p.home[w], k: walkOrder}
	backfill, credit := len(p.live), p.credit
	if wk.Home != nil {
		wk.k = walkHome
		backfill--
		if wk.Home.deficit > 0 {
			credit--
		}
	}
	if backfill > 0 && credit == 0 {
		for _, j := range p.live {
			p.credits(j, int64(j.Weight)*Quantum)
		}
		p.dirty = true
	}
	return wk
}

// Next returns the next job of the walk, nil when it is over.
func (p *Policy) Next(wk *Walk) *Job {
	if wk.k == walkHome {
		wk.k = walkOrder
		return wk.Home
	}
	if wk.k == walkOrder {
		if p.dirty {
			p.order = append(p.order[:0], p.live...)
			slices.SortFunc(p.order, backfillOrder)
			p.dirty = false
		}
		wk.k = 0
	}
	for wk.k < len(p.order) {
		j := p.order[wk.k]
		wk.k++
		if j != wk.Home {
			return j
		}
	}
	return nil
}
