package sim

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// This file is the Adaptive management model — the batched-shard
// protocol of the deque-based sharded manager. Each worker's shard is
// tagged with the job its last refill pulled from, so the virtual-time
// pricing covers what sharded batching costs a tenant machine:
//
//   - a worker pops its local shard for free while tasks remain — the
//     whole point of batching — and the shard's tasks all belong to one
//     job (the tag);
//   - a refill visit FLUSHES the shard's completion batch to its job
//     before probing for new work, so a worker switching jobs can never
//     strand completions of the job it leaves (flush-before-switch);
//     the probe order is the dispatch policy's candidate walk (home
//     first, then backfill in share.Policy's order), with the backfill
//     credit for a foreign refill charged for the whole pulled batch at
//     pull time;
//   - one Acquire covers the combined flush+refill visit (the visited
//     job's own Acquire cost — each job prices its own lock);
//   - starvation is priced pool-wide: ONE hoarded-idle integral
//     (min(parked workers, hoarded tasks) over virtual time) and ONE
//     controller retune the shared batch knobs for the whole machine,
//     seeded from Config.Batch and enabled by Options.AdaptiveBatch on
//     any job.
//
// Conservation holds by construction: a shard's pending tasks keep their
// job from finishing until the owning worker dispatches and completes
// them (and the worker never parks while its shard holds tasks), and a
// parked worker always has an empty shard — its last refill visit flushed
// the completion batch before giving up.

// mshard is one worker's local state under the Adaptive model: the job
// tag, the task buffer a refill filled (tasks[next:] still pending), the
// completion batch awaiting a flush, and the NextTasks scratch. The tag
// covers both buffers: a worker completes only tasks it dispatched from
// its own shard, and flush-before-switch empties the completion batch
// before the tag can change.
type mshard struct {
	job   int
	tasks []core.Task
	next  int
	done  []core.Task
	buf   []core.Task
}

// madaptiveInit sets the pool-wide batch knobs, the per-worker shards,
// and — when any job opts into adaptive batching — the shared controller.
func (s *mstate) madaptiveInit(cfg Config, totalCost int64) {
	b := cfg.Batch
	if b <= 0 {
		b = 16
	}
	s.batchN, s.cbatchN = b, b/2
	if s.cbatchN < 1 {
		s.cbatchN = 1
	}
	for _, j := range s.jobs {
		if j.spec.Opt.AdaptiveBatch {
			s.tuner = NewTuner(TunerConfig{
				Cap: b, MgmtTarget: j.spec.Opt.MgmtTarget,
			})
			s.batchN, s.cbatchN = s.tuner.Cap(), s.tuner.Batch()
			break
		}
	}
	s.mab = make([]mshard, s.workers)
	for i := range s.mab {
		s.mab[i].job = -1
	}
	// Observation epochs: aim for ~100 per run so the multiplicative
	// controller has room to travel and settle.
	s.epochLen = (totalCost/int64(s.workers) + 1) / 100
	if s.epochLen < 1 {
		s.epochLen = 1
	}
}

// mNoteStarve advances the pool-wide hoarded-idle integral to now
// (Adaptive model only). Call before any change to the parked count or
// the hoarded-task count; out-of-order event times only stall the
// frontier, never rewind it.
func (s *mstate) mNoteStarve(now int64) {
	if s.model != Adaptive || now <= s.hiAt {
		return
	}
	if s.parkedN > 0 && s.hoardNow > 0 {
		n := int64(s.parkedN)
		if int64(s.hoardNow) < n {
			n = int64(s.hoardNow)
		}
		s.hiInt += n * (now - s.hiAt)
	}
	s.hiAt = now
}

// mMaybeRetune feeds the shared controller one epoch of pool-wide
// virtual-time measurements when enough virtual time has passed: the
// Acquire charges are the amortizable lock overhead, and the hoarded-idle
// integral the starvation a smaller batch would have fed.
func (s *mstate) mMaybeRetune(now int64) {
	if s.tuner == nil || now-s.lastObsAt < s.epochLen {
		return
	}
	s.mNoteStarve(now)
	capacity := (now - s.lastObsAt) * int64(s.workers)
	cap, batch, changed := s.tuner.Observe(capacity,
		s.acquireUnits-s.lastObsAcq, s.hiInt-s.lastObsHI)
	if changed {
		s.batchN, s.cbatchN = cap, batch
		if s.tr != nil {
			s.tr.Record(trace.KRetune, now, -1, -1, -1, 0, 0, int64(cap))
		}
		if s.met != nil {
			s.met.Retunes.Inc(0)
			s.met.BatchSize.Set(int64(cap))
		}
	}
	s.lastObsAt = now
	s.lastObsAcq = s.acquireUnits
	s.lastObsHI = s.hiInt
}

// mAcquire charges job j's per-lock-visit Acquire cost on the server and
// accrues it as the controller's amortizable-overhead input.
func (s *mstate) mAcquire(j *mjob, at int64) int64 {
	fin := s.serve(at, j.spec.Opt.Costs.Acquire)
	s.acquireUnits += int64(j.spec.Opt.Costs.Acquire)
	return fin
}

// mFlush applies shard sh's completion batch to its job through the
// serialized server and returns the finish time.
func (s *mstate) mFlush(sh *mshard, at int64) int64 {
	fin := s.completeBatch(s.jobs[sh.job], sh.done, at)
	sh.done = sh.done[:0]
	return fin
}

// madaptiveAsk serves a worker's ask under the Adaptive model: pop the
// local shard for free, or make one serialized visit that flushes the
// shard's completion batch (to the job it belongs to) and then walks the
// dispatch-policy candidates for the next refill.
func (s *mstate) madaptiveAsk(w int, asked int64) {
	sh := &s.mab[w]
	if sh.next < len(sh.tasks) {
		// Local shard pop: no management charge.
		task := sh.tasks[sh.next]
		sh.next++
		s.mNoteStarve(asked)
		s.hoardNow--
		if s.met != nil {
			s.met.DispatchWait.Observe(0)
		}
		s.dispatch(w, sh.job, &s.jobs[sh.job].pol != s.pol.Home(w), task, asked)
		return
	}
	// Refill visit. Completions flush first (they may release the very
	// work the refill then pulls, and the worker may be about to switch
	// jobs); one Acquire covers the combined visit.
	at := asked
	flushed := false
	if len(sh.done) > 0 {
		at = s.mFlush(sh, at)
		flushed = true
	}
	reopen := int64(-1)
	wk := s.pol.Start(w)
	for c := s.pol.Next(&wk); c != nil; c = s.pol.Next(&wk) {
		ji := c.ID
		j := s.jobs[ji]
		if at < j.openAt {
			// The job's between-phase serial action is still running.
			if reopen < 0 || j.openAt < reopen {
				reopen = j.openAt
			}
			continue
		}
		ts, dc := j.sched.NextTasks(sh.buf[:0], s.batchN)
		s.syncReady(j)
		at = s.serve(at, dc)
		if len(ts) == 0 {
			sh.buf = ts[:0]
			continue // dry probe: the candidate walk moves on
		}
		at = s.mAcquire(j, at)
		backfill := c != wk.Home
		if backfill {
			// Backfill credit for the whole foreign batch, charged when the
			// work is taken from the job — the batched form of the plain
			// per-dispatch charge.
			n := 0
			for _, t := range ts {
				n += t.Run.Len()
			}
			s.pol.Charge(c, n)
		}
		s.mMaybeRetune(at)
		// Wake after the refill: the visit's flush (and NextTasks' liveness
		// fallback) can release work beyond what this worker's batch took,
		// and parked peers must see it.
		s.wake(at)
		sh.job = ji
		sh.tasks, sh.buf, sh.next = ts, ts[:0], 1
		s.mNoteStarve(at)
		s.hoardNow += len(ts) - 1
		if s.met != nil {
			s.met.DispatchWait.Observe(at - asked)
		}
		s.dispatch(w, ji, backfill, ts[0], at)
		return
	}
	if flushed {
		at = s.mAcquire(s.jobs[sh.job], at)
		s.mMaybeRetune(at)
		s.wake(at)
	}
	s.parkRetry(w, at, reopen)
}

// madaptiveComplete accumulates a completion in the worker's shard,
// flushing it through one serialized visit when the completion batch
// fills. The shard's tag already names the completing job — a worker has
// one outstanding task, dispatched from its own shard.
func (s *mstate) madaptiveComplete(w int, at int64) {
	f := &s.worker[w].flight
	s.noteDone(f.dur, at)
	sh := &s.mab[w]
	sh.done = append(sh.done, f.task)
	if len(sh.done) >= s.cbatchN {
		at = s.mAcquire(s.jobs[sh.job], at)
		at = s.mFlush(sh, at)
		s.mMaybeRetune(at)
		s.wake(at)
	} else {
		// Batched: the completion waits in the shard at no management
		// charge; the phase still saw the event.
		s.jobs[sh.job].phaseEnd(f.task.Phase, at)
	}
	// The worker asks for new work once its completion is handed off.
	s.pushAsk(at, w)
}
