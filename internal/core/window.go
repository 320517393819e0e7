package core

import (
	"fmt"

	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/queue"
)

// This file is the phase-window half of the state machine: driving the
// current-phase window forward, preparing phase pairs for overlap,
// constructing and publishing enablement tables (composite granule maps),
// planning indirect successor subsets, and elevating enabling granules.

// Start activates the first phase (and, when overlap is enabled, prepares
// its successor). It returns the management cost incurred.
func (s *Scheduler) Start() Cost {
	if s.started {
		return 0
	}
	s.started = true
	return s.advance()
}

// advance drives the current-phase window forward until it rests on an
// incomplete, activated phase (or the program ends).
func (s *Scheduler) advance() Cost {
	var cost Cost
	for s.current < len(s.phases) {
		pr := &s.phases[s.current]
		switch pr.state {
		case PhaseUnstarted:
			cost += s.serialActivate(pr)
			pr.state = PhaseCurrent
			cost += s.prepareOverlap(s.current)
			if pr.nComplete >= pr.total {
				pr.state = PhaseComplete
				s.current++
				continue
			}
			return cost
		case PhaseOverlapped:
			if pr.nComplete >= pr.total {
				pr.state = PhaseComplete
				s.current++
				continue
			}
			// The overlapped phase becomes the current phase: its
			// filler work is promoted to normal priority and its own
			// successor is prepared for overlap.
			s.wait.Promote(queue.Background, queue.Normal)
			pr.state = PhaseCurrent
			// If the pair's composite map was never published (the build
			// was deferred and overtaken by the predecessor's
			// completion), nothing has been released: queue the whole
			// span as normal work now. The pending build item becomes a
			// cancelled no-op.
			if s.current > 0 {
				prev := &s.phases[s.current-1]
				if s.opt.Overlap && prev.emap != nil &&
					prev.tab == nil && pr.total > 0 {
					cost += s.enqueueRange(pr, granule.Span(pr.total), queue.Normal)
				}
			}
			cost += s.prepareOverlap(s.current)
			return cost
		case PhaseCurrent:
			if pr.nComplete >= pr.total {
				pr.state = PhaseComplete
				s.current++
				continue
			}
			return cost
		case PhaseComplete:
			s.current++
		default:
			panic(fmt.Sprintf("core: invalid phase state %v", pr.state))
		}
	}
	return cost
}

// serialActivate performs the between-phase serial action (if any) and
// queues the phase's whole span as normal-priority work.
func (s *Scheduler) serialActivate(pr *phaseRun) Cost {
	var cost Cost
	if pr.spec.SerialBefore != nil {
		pr.spec.SerialBefore()
	}
	cost += pr.spec.SerialCost
	s.stats.SerialCost += pr.spec.SerialCost
	if pr.total > 0 {
		cost += s.enqueueRange(pr, granule.Span(pr.total), queue.Normal)
	}
	return cost
}

// enqueueRange queues run for phase pr at the given class, honouring the
// pre-split policy, and returns the management cost.
func (s *Scheduler) enqueueRange(pr *phaseRun, run granule.Range, class queue.Class) Cost {
	if run.Empty() {
		return 0
	}
	var cost Cost
	if s.opt.Split == SplitPre && run.Len() > s.opt.Grain {
		chunks := run.Chunks(s.opt.Grain)
		s.stats.Splits += int64(len(chunks) - 1)
		cost += Cost(len(chunks)-1) * s.opt.Costs.Split
		for _, c := range chunks {
			cost += s.pushDesc(s.newDesc(pr.idx, c), class)
		}
		return cost
	}
	return cost + s.pushDesc(s.newDesc(pr.idx, run), class)
}

// pushDesc appends detached description i to the waiting computation
// queue.
func (s *Scheduler) pushDesc(i queue.Index, class queue.Class) Cost {
	d := s.wait.At(i)
	n := d.run.r().Len()
	s.phases[d.phase].nQueued += n
	s.readyTasks += s.taskCount(n)
	s.wait.Push(i, class)
	s.stats.DispatchCost += s.opt.Costs.Dispatch
	return s.opt.Costs.Dispatch
}

// releasedClass is the class successor work is released to.
func (s *Scheduler) releasedClass() queue.Class {
	if s.opt.ReleasedAhead {
		return queue.Released
	}
	return queue.Background
}

// prepareOverlap initiates phase c+1 for overlap with current phase c, per
// the declared enablement mapping. No-op for barrier mode, null mappings,
// or the final phase. Universal and identity pairs are wired immediately
// (their "tables" are implicit and O(1) to build); indirect pairs defer
// composite-map construction to executive idle time, per the paper: "it
// would seem wise to get the current phase into execution without the
// delay of constructing the necessary information for enabling successor
// computations."
func (s *Scheduler) prepareOverlap(c int) Cost {
	if !s.opt.Overlap || c+1 >= len(s.phases) {
		return 0
	}
	pr := &s.phases[c]
	if pr.emap == nil {
		return 0
	}
	next := &s.phases[c+1]
	if next.state != PhaseUnstarted {
		return 0 // already active or complete; nothing to prepare
	}
	next.state = PhaseOverlapped
	next.nextActivated = true

	if pr.emap.Kind().Indirect() && !s.opt.InlineMaps {
		s.deferred = append(s.deferred, deferredItem{
			kind: deferBuildTable, predPhase: c, succPhase: c + 1,
		})
		s.stats.DeferredItems++
		return 0
	}
	return s.buildPair(pr, next)
}

// buildPair constructs the enablement table (composite granule map) for
// the pair pr -> next and publishes it immediately — the inline path used
// for universal and identity mappings, whose "maps" are implicit and O(1).
// The paper: the map "would have to be generated by the executive at or
// after first phase initiation but before any second phase enablements".
func (s *Scheduler) buildPair(pr, next *phaseRun) Cost {
	tab := s.constructTable(pr)
	tcost := Cost(tab.BuildCost()) * s.opt.Costs.MapEntry
	s.stats.TableCost += tcost
	return tcost + s.publishPair(pr, next, tab)
}

// constructTable makes this run's table over pr's compiled map, in pr's
// own record (no publication, no cost charging). The program compiled the
// map, so this is a counter copy that cannot fail; it is still counted —
// and by its callers charged — as the modelled executive's map generation.
func (s *Scheduler) constructTable(pr *phaseRun) *enable.Table {
	tab := &pr.table
	pr.emap.InitTable(tab)
	s.stats.TableBuilds++
	s.stats.TableEntries += tab.BuildCost()
	return tab
}

// publishPair installs a constructed table: catches up completions that
// happened before the table existed, releases the computable successor
// granules, attaches identity conflict-queue descriptions, and plans the
// indirect successor subset.
//
// The successor granules it releases are gathered in the released
// scratch's bitmap, which is empty here — publication happens at Start, in
// the phase-window advance after a completion's drain, or in deferred
// management, never with a completion's releases pending — and is cleared
// again on the way out.
func (s *Scheduler) publishPair(pr, next *phaseRun, tab *enable.Table) Cost {
	kind := tab.Kind()
	var cost Cost

	pr.tab = tab
	pr.pendingTab = nil

	// Catch up completions that happened before the table existed (the
	// current phase may have progressed while it was itself overlapped).
	ready := s.released.bits[:granule.Words(next.total)]
	copy(ready, tab.ReadyAtStart())
	if pr.nComplete > 0 {
		touched := 0
		pr.completed.Runs(granule.Span(pr.total), func(r granule.Range) {
			touched += tab.CompleteRange(r, ready)
		})
		s.stats.CatchUps += int64(touched)
		ccost := Cost(touched) * s.opt.Costs.PerEnable
		s.stats.CompleteCost += ccost
		cost += ccost
	}

	// Queue the immediately computable successor granules behind the
	// current phase ("placed in the waiting computation queue behind the
	// current phase description"). A deferred build may land after the
	// successor has already become the current phase; its work is then
	// normal-priority.
	class := queue.Background
	if next.state == PhaseCurrent {
		class = queue.Normal
	}
	ready.Runs(granule.Span(next.total), func(r granule.Range) {
		cost += s.enqueueRange(next, r, class)
		s.stats.Releases++
	})

	// Identity via conflict queues: attach successor descriptions to the
	// queued current-phase descriptions they are enabled by.
	if kind == enable.Identity && s.opt.IdentityVia == IdentityConflictQueue {
		cost += s.attachIdentitySuccessors(pr, next)
	}

	// Indirect mappings: plan a successor subset, elevate its enabling
	// current-phase granules, and arm the enablement counter.
	if kind.Indirect() && s.opt.Elevate {
		cost += s.planSubset(pr, next, ready)
	}
	ready.Clear(granule.Span(next.total))
	return cost
}

// attachIdentitySuccessors walks the waiting queue and, for every queued
// description of the current phase, attaches the matching successor
// range to its conflict queue (see desc.succ: the successor description
// itself is materialized at completion time).
func (s *Scheduler) attachIdentitySuccessors(pr, next *phaseRun) Cost {
	lim := pr.total
	if next.total < lim {
		lim = next.total
	}
	var cost Cost
	s.wait.Each(func(i queue.Index, _ queue.Class) {
		d := s.wait.At(i)
		if d.phase != int32(pr.idx) {
			return
		}
		run := d.run.r().Intersect(granule.R(0, granule.ID(lim)))
		if run.Empty() {
			return
		}
		d.succ = spanOf(run)
		pr.cqManaged.Set(run)
		s.stats.Releases++ // queue insertion onto the conflict ring
		cost += s.opt.Costs.Dispatch
		s.stats.DispatchCost += s.opt.Costs.Dispatch
	})
	return cost
}

// planSubset implements the paper's indirect-mapping strategy: "identify a
// subset group of successor-phase granules that are to be the subject of
// the enablement operation", find the current-phase granules that enable
// it, elevate their priority, and arm an enablement counter that releases
// the subset when they have all completed.
func (s *Scheduler) planSubset(pr, next *phaseRun, released granule.Bitmap) Cost {
	var cost Cost

	// Successor subset: the first SubsetSize granules still pending —
	// excluding everything already queued (ready-at-start granules and
	// catch-up releases), which must not be released a second time.
	subset, span := pr.subsetManaged, granule.Range{}
	remaining := s.opt.SubsetSize
	released.Gaps(granule.Span(next.total), func(r granule.Range) {
		if r, _ = r.TakeFront(remaining); r.Empty() {
			return
		}
		subset.Set(r)
		remaining -= r.Len()
		if span.Empty() {
			span.Lo = r.Lo
		}
		span.Hi = r.Hi
	})
	if span.Empty() {
		return 0
	}

	// Composite-map scan for the enabling current-phase granules.
	preds := pr.subsetPreds
	scanned := pr.tab.PredsFor(subset, preds)
	scost := Cost(scanned) * s.opt.Costs.MapEntry
	s.stats.TableCost += scost
	cost += scost

	// Only uncompleted granules are counted; completed ones already
	// contributed their enablement.
	preds.AndNot(pr.completed)
	n := preds.Count(granule.Span(pr.total))
	if n == 0 {
		// Everything needed has completed; release the subset now.
		subset.Runs(span, func(r granule.Range) { cost += s.release(next, r) })
		subset.Clear(span)
		return cost
	}

	pr.subsetSpan = span
	pr.subsetCounter.Arm(n)

	// Elevate the enabling granules that are still queued. Granules in
	// flight will complete soon regardless.
	cost += s.elevate(pr, preds)
	return cost
}

// elevate extracts the granules of preds from the current phase's queued
// descriptions and requeues them at elevated priority.
func (s *Scheduler) elevate(pr *phaseRun, preds granule.Bitmap) Cost {
	var cost Cost
	s.wait.Each(func(i queue.Index, class queue.Class) {
		d := s.wait.At(i)
		run := d.run.r()
		if d.phase != int32(pr.idx) || class == queue.Elevated || !preds.Any(run) {
			return
		}
		s.wait.Remove(i)
		s.wait.Free(i)
		pr.nQueued -= run.Len()
		s.readyTasks -= s.taskCount(run.Len())

		// The description splits into its runs of enabling granules,
		// elevated, and the runs between them, requeued where it was: at
		// the back of its class, where this walk passes them over.
		pieces := 0
		preds.Runs(run, func(r granule.Range) {
			pieces++
			cost += s.pushDesc(s.newDesc(pr.idx, r), queue.Elevated)
			s.stats.Elevations++
			ec := s.opt.Costs.Elevate
			s.stats.ElevateCost += ec
			cost += ec
		})
		preds.Gaps(run, func(r granule.Range) {
			pieces++
			cost += s.pushDesc(s.newDesc(pr.idx, r), class)
		})
		if pieces > 1 {
			s.stats.Splits += int64(pieces - 1)
			sc := Cost(pieces-1) * s.opt.Costs.Split
			s.stats.SplitCost += sc
			cost += sc
		}
	})
	return cost
}

// release queues the successor granules of run as a released description
// (split to the grain under the pre-split policy).
func (s *Scheduler) release(next *phaseRun, run granule.Range) Cost {
	s.stats.Releases++
	return s.enqueueRange(next, run, s.releasedClass())
}
