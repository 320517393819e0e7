package core

import (
	"fmt"

	"repro/internal/granule"
	"repro/internal/queue"
)

// This file is the dispatch half of the state machine: draining the
// waiting computation queue into worker-sized tasks, carved on demand off
// the head description, and handing on attached successor ranges.

// NextTask takes the highest-priority ready task, carving it to the grain
// off the head description if needed, and returns it with the management
// cost of the dispatch. ok is false when no work is ready (the processor
// idles — this is computational rundown unless the program is done).
func (s *Scheduler) NextTask() (t Task, cost Cost, ok bool) {
	var one [1]Task
	ts, cost := s.NextTasks(one[:0], 1)
	if len(ts) == 0 {
		return Task{}, cost, false
	}
	return ts[0], cost, true
}

// NextTasks takes up to max ready tasks in one call, appending them to dst
// and returning it with the summed management cost: the same tasks, in the
// same order and with the same charges, as max sequential NextTask calls.
// A batching driver pulls a whole deque refill under one lock acquisition
// this way. Fewer than max tasks (possibly zero) are returned when the
// queue drains.
func (s *Scheduler) NextTasks(dst []Task, max int) ([]Task, Cost) {
	if !s.started {
		panic("core: NextTask before Start")
	}
	var cost Cost
	for want := len(dst) + max; len(dst) < want; {
		n, class, ok := s.wait.Peek()
		if !ok {
			// Liveness fallback: with nothing queued AND nothing in
			// flight, no completion can ever release work, so the
			// executive must drain its deferred queue now or deadlock.
			// When tasks are still in flight the driver simply idles this
			// worker — completions (and the driver's own idle-executive
			// DeferredMgmt calls) will make progress, and an unfinished
			// composite-map build can still be cancelled by the
			// predecessor completing.
			for s.wait.Empty() && s.inflight.len() == 0 {
				dc, any := s.DeferredMgmt()
				if !any {
					return dst, cost
				}
				cost += dc
			}
			if n, class, ok = s.wait.Peek(); !ok {
				break
			}
		}
		var c Cost
		dst, c = s.carve(dst, n, class, want-len(dst))
		cost += c
	}
	return dst, cost
}

// carve dispatches up to k tasks off the head description (node n, queued
// in class), appending them to dst. A description larger than the grain
// has a grain-sized front cut off in place — the remainder keeps its place
// at the head of the queue — and a piece that fits the grain leaves the
// queue whole. No completion can interleave (the driver holds the state
// machine for the whole call) and carving releases nothing, so the head
// stays the head: these are the tasks, and the charges, of k one-task
// calls.
func (s *Scheduler) carve(dst []Task, n *queue.Node[*desc], class queue.Class, k int) ([]Task, Cost) {
	d := n.Value
	pr := s.phases[d.phase]
	span, _ := d.run.TakeFront(k * s.opt.Grain)

	// Double-dispatch guard, once for the whole carved span.
	if pr.dispatched.any(span) {
		panic(fmt.Sprintf("core: double dispatch of %v in phase %d", span, d.phase))
	}
	pr.dispatched.set(span)
	pr.nQueued -= span.Len()

	var cost Cost
	for {
		t := d
		if d.run.Len() > s.opt.Grain {
			front, rest := d.run.TakeFront(s.opt.Grain)
			t, d.run = s.getDesc(d.phase, front), rest
			s.stats.Splits++
			s.stats.SplitCost += s.opt.Costs.Split
			cost += s.opt.Costs.Split
			if !d.succ.Empty() {
				cost += s.splitSucc(t, d)
			}
		} else {
			s.wait.Remove(n, class)
		}
		s.readyTasks--
		cost += s.opt.Costs.Dispatch
		s.stats.DispatchCost += s.opt.Costs.Dispatch
		s.nextID++
		s.stats.Dispatches++
		task := Task{ID: s.nextID, Phase: t.phase, Run: t.run}
		s.inflight.put(task.ID, t)
		dst = append(dst, task)
		if task.Run.Hi == span.Hi {
			return dst, cost
		}
	}
}

// splitSucc hands on the successor range attached to d when front t has
// just been carved off it, per the successor-split mode.
func (s *Scheduler) splitSucc(t, d *desc) Cost {
	switch s.opt.SuccSplit {
	case SuccSplitInline:
		// The range is a subrange of its enabler's run: split it to mirror
		// the split of its enabler, paying the split cost on the dispatch
		// path when it straddles the cut.
		t.succ, d.succ = d.succ.Intersect(t.run), d.succ.Intersect(d.run)
		if !t.succ.Empty() && !d.succ.Empty() {
			s.stats.Splits++
			s.stats.SplitCost += s.opt.Costs.Split
			return s.opt.Costs.Split
		}
	case SuccSplitDeferred:
		// Detach entirely; a successor-splitting management task will sort
		// it out when the executive is idle. The range stays
		// conflict-queue-managed (table emissions stay suppressed) until
		// the task runs, so there is exactly one release authority at any
		// moment.
		s.deferred = append(s.deferred, deferredItem{
			kind:      deferSplitSucc,
			predPhase: int(d.phase),
			succPhase: int(d.phase) + 1,
			run:       d.succ,
		})
		d.succ = granule.Range{}
		s.stats.DeferredItems++
	}
	return 0
}
