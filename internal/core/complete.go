package core

import (
	"fmt"

	"repro/internal/enable"
	"repro/internal/granule"
)

// This file is the completion half of the state machine: merging completed
// descriptions, releasing conflict-queued successors, decrementing
// enablement counters, and advancing the phase window.

// Complete performs completion processing for a dispatched task: it merges
// the completed description, releases conflict-queued successor
// descriptions, decrements enablement counters, and advances the phase
// window when the current phase finishes. It returns the management cost.
// In steady state it allocates nothing: see the scratch sets on Scheduler.
func (s *Scheduler) Complete(t Task) Cost {
	d, ok := s.inflight.take(t.ID)
	if !ok {
		panic(fmt.Sprintf("core: Complete of unknown %v", t))
	}
	pr := s.phases[d.phase]

	cost := s.opt.Costs.Complete + s.opt.Costs.Merge
	s.stats.Completions++
	s.stats.Merges++
	s.stats.CompleteCost += s.opt.Costs.Complete + s.opt.Costs.Merge

	if pr.completed.ContainsRange(d.run) && !d.run.Empty() {
		panic(fmt.Sprintf("core: double completion of %v in phase %d", d.run, d.phase))
	}
	pr.completed.AddRange(d.run)
	pr.nComplete += d.run.Len()

	// Release the conflict-queued successor: "upon completion of the
	// described computation, all the queued conflicting computations
	// became unconditionally computable and were placed in the waiting
	// computation queue" — ahead of normal work. The successor
	// description is materialized only now, typically reusing the
	// allocation the enabler retires below.
	if !d.succ.Empty() {
		run := d.succ
		d.succ = granule.Range{}
		cost += s.pushDesc(s.getDesc(d.phase+1, run), s.releasedClass())
		s.stats.Releases++
	}

	s.merged.Reset()
	s.merged.AddRange(d.run)
	cost += s.settle(pr)
	s.putDesc(d)
	return cost
}

// settle is the tail of completion processing shared by Complete and
// completeGroup, over the runs just completed in pr (held in s.merged):
// enablement-counter processing for the phase pair, the subset counter,
// and the phase-window advance.
//
// Counter touches for conflict-queue-managed granules are not charged: PAX
// releases those per description, in O(1), which is exactly why
// computations are "described as large, contiguous collections of
// granules". The counters are still advanced so that deferred
// successor-splitting tasks and phase accounting stay consistent.
func (s *Scheduler) settle(pr *phaseRun) Cost {
	var cost Cost
	if pr.tab != nil {
		hasNext := int(pr.idx)+1 < len(s.phases)
		released := &s.released
		released.Reset()
		suppressed := false
		emit := func(r granule.ID) {
			if pr.cqManaged.Contains(r) {
				suppressed = true
				return // released by the conflict-queue mechanism
			}
			if pr.subsetManaged.Contains(r) {
				return // released as a unit by the subset counter
			}
			released.Add(r)
		}
		charged := 0
		identity := pr.tab.Kind() == enable.Identity
		for i := 0; i < s.merged.NumRuns(); i++ {
			run := s.merged.RunAt(i)
			if identity {
				// Identity enables run-for-run, and the two management sets
				// almost always cover an enabled run entirely or not at all:
				// decide per run, and fall back to per-granule emission only
				// for a run that straddles a set's edge.
				r := pr.tab.CompleteIdentity(run)
				n := r.Len()
				cq := pr.cqManaged.CountRange(r)
				switch {
				case cq == n:
					// Released by the conflict-queue mechanism (or empty).
				case cq == 0 && !pr.subsetManaged.IntersectsRange(r):
					charged += n
					released.AddRange(r)
				default:
					for g := r.Lo; g < r.Hi; g++ {
						suppressed = false
						emit(g)
						if !suppressed {
							charged++
						}
					}
				}
				continue
			}
			for p := run.Lo; p < run.Hi; p++ {
				suppressed = false
				if n := pr.tab.Complete(p, emit); !suppressed {
					charged += n
				}
			}
		}
		if charged > 0 {
			ec := Cost(charged) * s.opt.Costs.PerEnable
			s.stats.EnableTouches += int64(charged)
			s.stats.CompleteCost += ec
			cost += ec
		}
		if !released.Empty() && hasNext {
			cost += s.releaseSet(s.phases[int(pr.idx)+1], released)
		}

		// Subset counter: the paper's status-bit-plus-counter mechanism.
		if pr.subsetCounter.Armed() {
			fired := false
			for i := 0; i < s.merged.NumRuns(); i++ {
				hits := pr.subsetPreds.CountRange(s.merged.RunAt(i))
				for ; hits > 0; hits-- {
					if pr.subsetCounter.Dec() {
						fired = true
					}
				}
			}
			if fired && hasNext {
				subset := pr.subsetManaged
				pr.subsetManaged = granule.NewSet()
				cost += s.releaseSet(s.phases[int(pr.idx)+1], subset)
			}
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
// completed descriptions merged into coalesced runs, their enablement
// releases unioned, and their conflict-released successor descriptions
// combined — so a batch of B fine-grain completions costs far fewer
// structure operations (and queues far fewer, larger descriptions) than B
// sequential Complete calls, while completing and releasing exactly the
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
	pr := s.phases[ts[0].Phase]

	cost := Cost(len(ts)) * (s.opt.Costs.Complete + s.opt.Costs.Merge)
	s.stats.Completions += int64(len(ts))
	s.stats.Merges += int64(len(ts))
	s.stats.CompleteCost += cost

	// Merge the completed descriptions and drain their conflict rings.
	// Task runs are pairwise disjoint (the dispatch path guards against
	// double dispatch), so the per-task double-completion check against
	// the already-completed set mirrors sequential semantics.
	merged, succ := &s.merged, &s.succ // succ: conflict-released successor granules
	merged.Reset()
	succ.Reset()
	for _, t := range ts {
		d, ok := s.inflight.take(t.ID)
		if !ok {
			panic(fmt.Sprintf("core: Complete of unknown %v", t))
		}
		if pr.completed.ContainsRange(d.run) && !d.run.Empty() {
			panic(fmt.Sprintf("core: double completion of %v in phase %d", d.run, d.phase))
		}
		merged.AddRange(d.run)
		if !d.succ.Empty() {
			succ.AddRange(d.succ)
			d.succ = granule.Range{}
		}
		s.putDesc(d)
	}
	for i := 0; i < merged.NumRuns(); i++ {
		pr.completed.AddRange(merged.RunAt(i))
	}
	pr.nComplete += merged.Len()

	// Release the conflict-queued successors as coalesced descriptions,
	// ahead of normal work — one queue insertion per contiguous run
	// instead of one per drained description.
	if int(pr.idx)+1 < len(s.phases) {
		next := s.phases[int(pr.idx)+1]
		for i := 0; i < succ.NumRuns(); i++ {
			cost += s.pushDesc(s.getDesc(next.idx, succ.RunAt(i)), s.releasedClass())
			s.stats.Releases++
		}
	}

	// Enablement-counter processing over the merged runs, with the same
	// suppression rules and cost charges as the sequential path; the
	// released successors of the whole group coalesce into one release.
	return cost + s.settle(pr)
}
