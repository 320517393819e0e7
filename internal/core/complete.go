package core

import (
	"fmt"

	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/queue"
)

// This file is the completion half of the state machine: merging completed
// descriptions, releasing conflict-queued successors, decrementing
// enablement counters, and advancing the phase window.

// Complete performs completion processing for a dispatched task: it merges
// the completed description, releases conflict-queued successor
// descriptions, decrements enablement counters, and advances the phase
// window when the current phase finishes. It returns the management cost.
// In steady state it allocates nothing: see the scratch bitmaps on
// Scheduler.
func (s *Scheduler) Complete(t Task) Cost {
	succ := s.retire(t)
	pr := &s.phases[t.Phase]

	cost := s.opt.Costs.Complete + s.opt.Costs.Merge
	s.stats.Completions++
	s.stats.Merges++
	s.stats.CompleteCost += s.opt.Costs.Complete + s.opt.Costs.Merge

	s.markComplete(pr, t.Run)

	// Release the conflict-queued successor: "upon completion of the
	// described computation, all the queued conflicting computations
	// became unconditionally computable and were placed in the waiting
	// computation queue" — ahead of normal work. The successor
	// description is materialized only now, in the record the enabler
	// has just retired.
	if !succ.Empty() {
		cost += s.pushDesc(s.newDesc(t.Phase+1, succ), s.releasedClass())
		s.stats.Releases++
	}

	charged, fired := s.decrement(pr, t.Run)
	return cost + s.settle(pr, charged, fired)
}

// retire ends the flight of dispatched task t and frees its description,
// returning the description's conflict queue. t's ID must name a
// description in flight with t's run: a task completed twice, or one this
// scheduler never dispatched, panics.
func (s *Scheduler) retire(t Task) (succ granule.Range) {
	if t.ID <= 0 || t.ID >= s.wait.Len() {
		panic(fmt.Sprintf("core: Complete of unknown %v", t))
	}
	i := queue.Index(t.ID)
	d := s.wait.At(i)
	if !d.inFlight || d.phase != int32(t.Phase) || d.run.r() != t.Run {
		panic(fmt.Sprintf("core: Complete of unknown %v", t))
	}
	succ = d.succ.r()
	s.wait.Free(i)
	s.inFlight--
	return succ
}

// markComplete records run of pr as completed. A granule must never
// complete twice: a run any granule of which is already complete would
// push nComplete past the phase and release its successors early.
func (s *Scheduler) markComplete(pr *phaseRun, run granule.Range) {
	if pr.completed.TrySet(run) {
		panic(fmt.Sprintf("core: double completion of %v in phase %d", run, pr.idx))
	}
	pr.nComplete += run.Len()
}

// decrement is the enablement-counter processing of the completed run of
// pr: the pair's table counters, with the successor granules they release
// gathered in s.released, and the subset counter. It returns the counter
// touches to charge and whether the subset counter fired. Every charge is
// per granule, so a group of completions may be decremented run by run.
//
// Counter touches for conflict-queue-managed granules are not charged: PAX
// releases those per description, in O(1), which is exactly why
// computations are "described as large, contiguous collections of
// granules". The counters are still advanced so that deferred
// successor-splitting tasks and phase accounting stay consistent.
func (s *Scheduler) decrement(pr *phaseRun, run granule.Range) (charged int, fired bool) {
	if pr.tab == nil {
		return 0, false
	}
	if pr.tab.Kind() == enable.Identity {
		// Identity enables run for run; what is conflict-queue managed
		// is its queue's to release. A run is almost always managed
		// entirely or not at all.
		switch r := pr.tab.CompleteIdentity(run); {
		case !pr.cqManaged.Any(r):
			charged = r.Len()
			s.released.set(r)
		case !pr.cqManaged.All(r):
			pr.cqManaged.Gaps(r, func(g granule.Range) {
				charged += g.Len()
				s.released.set(g)
			})
		}
	} else {
		emit := func(r granule.ID) {
			if !pr.subsetManaged.Has(r) { // released as a unit by the subset counter
				s.released.set(granule.R(r, r+1))
			}
		}
		for p := run.Lo; p < run.Hi; p++ {
			charged += pr.tab.Complete(p, emit)
		}
	}
	// Subset counter: the paper's status-bit-plus-counter mechanism.
	if pr.subsetCounter.Armed() {
		for hits := pr.subsetPreds.Count(run); hits > 0; hits-- {
			fired = pr.subsetCounter.Dec() || fired
		}
	}
	return charged, fired
}

// settle is the tail of completion processing shared by Complete and
// completeGroup, after their runs of pr are decremented: the charge for the
// counter touches, the release of what the table and the subset counter
// enabled, and the phase-window advance.
func (s *Scheduler) settle(pr *phaseRun, charged int, fired bool) Cost {
	var cost Cost
	if charged > 0 {
		ec := Cost(charged) * s.opt.Costs.PerEnable
		s.stats.EnableTouches += int64(charged)
		s.stats.CompleteCost += ec
		cost += ec
	}
	if pr.tab != nil {
		next := &s.phases[int(pr.idx)+1]
		s.released.drain(func(r granule.Range) { cost += s.release(next, r) })
		if fired {
			pr.subsetManaged.Runs(pr.subsetSpan, func(r granule.Range) { cost += s.release(next, r) })
			pr.subsetManaged.Clear(pr.subsetSpan)
		}
	}

	if pr.nComplete >= pr.total {
		pr.state = PhaseComplete
		if int(pr.idx) == s.current {
			s.current++
			cost += s.advance()
		}
	}
	return cost
}

// CompleteBatch performs completion processing for ts in order and returns
// the summed management cost. It is the batching driver's entry point:
// completions accumulate per worker and are applied here under a single
// lock acquisition. Runs of consecutive same-phase tasks are fused — their
// enablement releases unioned, and their conflict-released successor
// descriptions combined — so a batch of B fine-grain completions costs far
// fewer structure operations (and queues far fewer, larger descriptions)
// than B sequential Complete calls, while completing and releasing exactly the
// same granules. This is the paper's own economy — computations "described
// as large, contiguous collections of granules" — recovered at completion
// time from a batch.
func (s *Scheduler) CompleteBatch(ts []Task) Cost {
	var cost Cost
	for i := 0; i < len(ts); {
		j := i + 1
		for j < len(ts) && ts[j].Phase == ts[i].Phase {
			j++
		}
		if j-i == 1 {
			cost += s.Complete(ts[i])
		} else {
			cost += s.completeGroup(ts[i:j])
		}
		i = j
	}
	return cost
}

// completeGroup fuses completion processing for two or more tasks of one
// phase. Within the batch no dispatches can interleave (the driver holds
// the state machine for the whole call), so deferring queue pushes and the
// phase-window advance to the end of the group is observationally
// equivalent to sequential Complete calls.
func (s *Scheduler) completeGroup(ts []Task) Cost {
	pr := &s.phases[ts[0].Phase]

	cost := Cost(len(ts)) * (s.opt.Costs.Complete + s.opt.Costs.Merge)
	s.stats.Completions += int64(len(ts))
	s.stats.Merges += int64(len(ts))
	s.stats.CompleteCost += cost

	// Complete the descriptions and gather their conflict-queued
	// successors. Counters are decremented as in Complete, once per run of
	// abutting descriptions.
	charged, fired := 0, false
	var run granule.Range // completed, not yet decremented
	for _, t := range ts {
		s.succ.set(s.retire(t))
		s.markComplete(pr, t.Run)
		if t.Run.Lo != run.Hi {
			n, f := s.decrement(pr, run)
			charged, fired = charged+n, fired || f
			run.Lo = t.Run.Lo
		}
		run.Hi = t.Run.Hi
	}
	n, f := s.decrement(pr, run)
	charged, fired = charged+n, fired || f

	// Release the conflict-queued successors as coalesced descriptions,
	// ahead of normal work — one queue insertion per contiguous run
	// instead of one per drained description.
	s.succ.drain(func(r granule.Range) {
		cost += s.pushDesc(s.newDesc(pr.idx+1, r), s.releasedClass())
		s.stats.Releases++
	})

	// What the group's counters released coalesces in one drain.
	return cost + s.settle(pr, charged, fired)
}
