package sim

// Deterministic fault injection in virtual time. The engine consults one
// compiled fault.Plan at the same chokepoints the real backends do:
//
//   - grain faults strike in dispatch: a slow grain stretches the task's
//     compute (work inflation the timeline and utilization then price), a
//     stuck grain delays the completion EVENT without inflating compute,
//     and a panicking/erroring grain stamps the completion with a failure
//     the run loop turns into a job failure (retry, or an abort isolated
//     from the co-tenants — which Run reports as the run's error);
//   - worker faults strike at ask service: a crashed worker finishes the
//     task in hand and never asks again (graceful capacity loss — the
//     crash waits while the model says the worker holds tasks, and applies
//     the completions it holds, so no task is stranded); a wedged
//     worker's next completion is withheld for Delay; a slow worker
//     stretches every task it runs;
//   - management faults strike the executive: a delayed completion
//     submission re-queues the completion event Delay later, and a
//     dropped wakeup makes wake() a no-op once — the run loop's
//     queue-empty recovery (refill) re-wakes, so the fault prices the
//     recovery instead of hanging the run.
//
// Every firing is flight-recorded as a KFault event (Arg = fault.Kind),
// so replay and conservation tooling can see exactly what was injected
// where.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// satScale stretches dur by a slow-fault factor, saturating well below
// int64 overflow: fault.New clamps each Factor, but worker and grain
// stretches compound, and a wrapped negative duration would push a
// completion behind its dispatch and corrupt the virtual timeline.
func satScale(dur, factor int64) int64 {
	const maxVirtual = int64(1) << 56
	if dur <= 0 || factor <= 1 {
		return dur
	}
	if dur >= maxVirtual/factor {
		return maxVirtual
	}
	return dur * factor
}

// noteFault flight-records one injected fault firing against job ji.
func (s *mstate) noteFault(at int64, w, ji int, k fault.Kind) {
	if s.tr != nil {
		s.tr.Record(trace.KFault, at, int32(w), int32(ji), -1, 0, 0, int64(k))
	}
	if s.met != nil {
		s.met.Faults.Inc(0)
	}
}

// inject applies grain- and worker-level faults to a dispatch: it
// returns the (possibly stretched) compute cost, the completion-event
// lag, and the failure the completion should carry. Only called with a
// non-nil plan.
func (s *mstate) inject(worker, ji int, task core.Task, at, dur int64) (int64, int64, error) {
	fx := s.plan.Dispatch(worker, ji, int(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), at,
		func(k fault.Kind) { s.noteFault(at, worker, ji, k) })
	var fail error
	switch fx.Grain {
	case fault.GrainPanic:
		fail = fmt.Errorf("sim: injected panic in job %q phase %d granules [%d,%d)",
			s.jobs[ji].spec.Name, task.Phase, task.Run.Lo, task.Run.Hi)
	case fault.GrainError:
		fail = fmt.Errorf("sim: injected error in job %q phase %d granules [%d,%d)",
			s.jobs[ji].spec.Name, task.Phase, task.Run.Lo, task.Run.Hi)
	}
	return satScale(dur, fx.Factor), fx.Stall + fx.Wedge, fail
}

// maybeCrash retires worker w when a WorkerCrash rule fires for it: the
// ask in hand dies and the worker never asks again. The crash is deferred
// while the model says the worker holds tasks only it can run, and the
// completions it holds are applied first, so no work is stranded. The last
// live worker refuses to crash — the rule is
// consumed but ignored — so a campaign cannot strand a program with zero
// workers. The survivors' homes are re-apportioned at the crash.
func (s *mstate) maybeCrash(w int, at int64) bool {
	if s.pol.Retired(w) {
		return true
	}
	if s.m.holds(w) {
		return false
	}
	if _, _, ok := s.plan.Worker(w, at, fault.WorkerCrash); !ok {
		return false
	}
	if s.pol.LiveWorkers() <= 1 {
		return false
	}
	at = s.m.release(w, at)
	s.pol.RetireWorker(w)
	s.noteFault(at, w, -1, fault.WorkerCrash)
	return true
}

// failJob handles job ji's failure at time at (proc is the worker whose
// completion carried it, -1 for a deadline abort). Either way the attempt
// generation bumps first, orphaning every in-flight completion of the dead
// attempt — the run loop frees those workers and discards their results, so
// a failed job can never corrupt a surviving one — the model drops what it
// holds of the dead attempt (tasks of a scheduler that no longer exists; a
// retried attempt rebuilds them from its fresh one), and the job leaves the
// dispatch policy's live set, so its home workers go to its co-tenants. A
// retryable failure with retries left then waits out its capped exponential
// backoff (see restartDue); otherwise the job retires with err.
func (s *mstate) failJob(ji int, at int64, proc int, err error, retryable bool) {
	j := s.jobs[ji]
	j.attempt++
	s.m.drop(ji, at)
	s.pol.Remove(&j.pol)
	if j.restartAt >= 0 {
		// Failed for good (a deadline) while waiting to restart.
		j.restartAt = -1
		s.restartN--
	}
	if retryable && j.retriesLeft > 0 {
		j.retriesLeft--
		j.attempts++
		s.retries++
		if s.met != nil {
			s.met.Retries.Inc(0)
		}
		sched, nerr := core.New(j.spec.Prog, j.opt)
		if nerr != nil {
			// Unreachable: the same (prog, opt) compiled at setup.
			panic(fmt.Sprintf("sim: retry recompile of job %q failed: %v", j.spec.Name, nerr))
		}
		// Not started until the restart: the job offers no work meanwhile.
		j.sched = sched
		j.phases = newPhaseTraces(j.spec.Prog)
		j.restartAt = at + core.Backoff(j.spec.Backoff, j.attempts)
		s.restartN++
		if s.tr != nil {
			s.tr.Record(trace.KRetry, at, int32(proc), int32(ji), -1, 0, 0, int64(j.attempts))
		}
	} else {
		j.err = err
		j.done = true
		if s.met != nil {
			s.met.JobsDone.Inc(0)
			s.met.ActiveJobs.Add(-1)
			if errors.Is(err, context.DeadlineExceeded) {
				s.met.DeadlineMisses.Inc(0)
			}
		}
		if at > j.makespan {
			j.makespan = at
			if at > s.front {
				s.front = at
			}
		}
		if s.tr != nil {
			s.tr.Record(trace.KAbort, at, int32(proc), int32(ji), -1, 0, 0, 0)
		}
	}
	s.syncReady(j) // a dead attempt, or an unstarted one, offers nothing
	if proc >= 0 {
		s.pushAsk(at, proc)
	}
}

// nextRestart returns the job whose pending restart comes first (nil when
// no job waits out a backoff).
func (s *mstate) nextRestart() *mjob {
	var first *mjob
	for _, j := range s.jobs {
		if j.restartAt >= 0 && (first == nil || j.restartAt < first.restartAt) {
			first = j
		}
	}
	return first
}

// restartDue starts the next attempt of the job whose backoff runs out
// first, once nothing comes before it: a restart is an event of its own
// time. Only then is the fresh scheduler's Start charged to the executive —
// a backoff reserves nothing, co-tenants' management proceeds through the
// wait — and the job rejoins the dispatch policy's live set. An empty queue
// the run loop can still refill is not yet that time (see checkDeadlines).
// It reports whether a job restarted.
func (s *mstate) restartDue() bool {
	j := s.nextRestart()
	if next, have := s.queue.peekTime(); have && next < j.restartAt || !have && s.refill(false) {
		return false
	}
	fin := s.serve(j.restartAt, j.sched.Start())
	j.restartAt = -1
	s.restartN--
	j.openAt = fin
	s.pol.Add(&j.pol)
	s.syncReady(j)
	s.wake(fin)
	return true
}

// checkDeadlines aborts every live job whose deadline has passed: a job
// is failed exactly AT its deadline once no remaining event could finish
// it in time (the next queued event lies beyond the deadline, or the
// queue is truly dead). The abort wraps context.DeadlineExceeded and
// never retries. It reports whether any job was aborted.
func (s *mstate) checkDeadlines() bool {
	next, have := s.queue.peekTime()
	if !have && s.refill(false) {
		// An empty event queue is not the end of time: under Async,
		// completions routinely park behind a busy server with every
		// worker idle, and the run loop regenerates events from exactly
		// this state (refill). Defer to it — the regenerated event carries
		// the real frontier, and the next pass fails any job it cannot
		// save.
		return false
	}
	// A pending restart is an event to come, like a queued one.
	if s.restartN > 0 {
		if r := s.nextRestart().restartAt; !have || r < next {
			next, have = r, true
		}
	}
	fired := false
	for ji, j := range s.jobs {
		if j.done || j.spec.Deadline <= 0 {
			continue
		}
		if have && next <= j.spec.Deadline {
			continue
		}
		s.failJob(ji, j.spec.Deadline, -1,
			fmt.Errorf("sim: job %q exceeded its deadline of %d units: %w",
				j.spec.Name, j.spec.Deadline, context.DeadlineExceeded),
			false)
		fired = true
	}
	return fired
}
