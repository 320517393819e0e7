package core

import (
	"fmt"

	"repro/internal/granule"
)

// This file holds the deferred-management half of the state machine: the
// work the executive postpones to its idle moments — successor splitting
// and incremental composite-granule-map construction.

// deferredKind distinguishes deferred management work.
type deferredKind uint8

const (
	// deferSplitSucc is a successor-splitting task: a successor
	// description detached from a conflict queue, awaiting splitting and
	// requeueing "for later attention when the executive would again be
	// idle".
	deferSplitSucc deferredKind = iota
	// deferBuildTable is composite-granule-map construction for an
	// indirect mapping, deferred so the executive can "get the current
	// phase into execution without the delay of constructing the
	// necessary information for enabling successor computations".
	deferBuildTable
)

// deferredItem is one unit of deferred management work.
type deferredItem struct {
	kind      deferredKind
	predPhase int
	succPhase int
	run       granule.Range // deferSplitSucc only
}

// HasDeferred reports whether successor-splitting management work awaits an
// idle executive.
func (s *Scheduler) HasDeferred() bool { return len(s.deferred) > 0 }

// DeferredMgmt processes one queued deferred management task (successor
// splitting or composite-map construction) and returns its cost. ok is
// false when none are pending. Drivers call this when the management
// resource is otherwise idle; NextTask also drains the queue as a liveness
// fallback when the waiting queue runs dry.
func (s *Scheduler) DeferredMgmt() (cost Cost, ok bool) {
	if len(s.deferred) == 0 {
		return 0, false
	}
	queued := s.deferred
	item := queued[0]
	s.deferred = queued[1:]

	pr := &s.phases[item.predPhase]
	next := &s.phases[item.succPhase]

	switch item.kind {
	case deferBuildTable:
		if pr.tab != nil {
			return 0, true // defensive: already built
		}
		if pr.nComplete >= pr.total || next.state == PhaseComplete {
			// Cancelled: the predecessor finished before the map was
			// needed; the successor is released wholesale by advance().
			pr.pendingTab = nil
			pr.buildLeft = 0
			return 0, true
		}
		if pr.pendingTab == nil {
			pr.pendingTab = s.constructTable(pr)
			pr.buildLeft = Cost(pr.pendingTab.BuildCost()) * s.opt.Costs.MapEntry
		}
		// Incremental construction: charge at most one chunk of map work
		// per idle-executive step so the build never monopolizes the
		// serial executive.
		step := pr.buildLeft
		if chunk := s.opt.Costs.MapChunk; chunk > 0 && step > chunk {
			step = chunk
		}
		pr.buildLeft -= step
		s.stats.TableCost += step
		cost = step
		if pr.buildLeft > 0 {
			// Not finished: keep the item queued for the next idle step,
			// at the head of the queue it was popped from (nothing has
			// been queued since).
			s.deferred = queued
			return cost, true
		}
		cost += s.publishPair(pr, next, pr.pendingTab)
		return cost, true

	case deferSplitSucc:
		// Identity mapping: successor granule r is enabled iff current
		// granule r has completed. Release the already-enabled part
		// (whose table emissions were suppressed while the range was
		// conflict-queue-managed); the rest flows through the enablement
		// table from now on.
		pr.cqManaged.Clear(item.run)
		cost = s.opt.Costs.Split + Cost(item.run.Len())*s.opt.Costs.PerEnable
		s.stats.DeferredCost += cost
		pr.completed.Runs(item.run, func(r granule.Range) { cost += s.release(next, r) })
		return cost, true
	}
	panic(fmt.Sprintf("core: unknown deferred item kind %d", item.kind))
}
