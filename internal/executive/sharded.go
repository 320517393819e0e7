package executive

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// sharded is the parallel Manager: each worker owns a lock-free Chase-Lev
// task deque and a local completion batch, so the global lock that guards
// the state machine is acquired once per batch instead of once per task —
// and the per-task path between acquisitions costs no lock at all.
//
//   - Refill: when a worker's deque drains it acquires the global lock
//     once, submits its accumulated completions (CompleteBatch), and pulls
//     up to cap tasks (NextTasks). The first refilled task is returned
//     directly; the rest are pushed into the worker's own deque in reverse
//     priority order and published with one store, so the owner's
//     popBottom consumes them in the state machine's priority order while
//     thieves steal the lowest-priority end.
//   - Batched completion: completions accumulate per worker and are
//     applied to the state machine in one lock acquisition when the batch
//     fills or at the next refill, whichever comes first.
//   - Work stealing: a worker whose deque drains during rundown sweeps the
//     other shards and CAS-steals up to half of the first non-empty deque
//     it finds into its own — no lock, no allocation, the loot published
//     with one store — before falling back to the global refill path.
//
// Compute stretches: a worker whose Enter is the lock-free fast path — a
// batch append and a deque pop — does no management, so its compute
// stretch stays open across tasks and the clock is not read. The stretch
// closes where management begins (a full batch, an empty deque, AskNone)
// with the one reading that also opens the management interval, its
// duration joins the shard's running sum, and the next global-lock visit
// folds that sum and the batch's task count into the manager's totals in
// the same critical section that applies the batch.
//
// Invariants the pool's stall probe relies on: a dry ask returns only after
// the worker's deque is empty, a steal sweep failed, and its completion
// batch was flushed under the global lock. So when every pool worker has
// swept the job dry, no task is held anywhere outside the state machine
// and InFlight()==0 identifies a true stall.
type sharded struct {
	runState

	met   *telemetry.Set // steal counters (nil = metrics off)
	cap   int            // deque refill batch size
	batch int            // completion batch size

	shards []shard

	// stealTick rotates the steal-sweep start position across calls so
	// starving workers spread their first probes over different victims
	// instead of all hammering the same neighbor.
	stealTick atomic.Uint64
	// stealNS accumulates time spent inside steal sweeps (CAS loops and
	// deque transfers outside the global lock). It is management work —
	// the sharded analogue of executive dispatch — and is folded into
	// Totals' mgmt so computation-to-management ratios do not undercount
	// sharded management.
	stealNS atomic.Int64
}

// shard is one worker's local state. dq is the lock-free task deque: the
// owner pushes refills and pops the bottom; thieves CAS the top. done is
// the owner-only completion batch and refillBuf the owner-only scratch the
// refill path hands to NextTasks and a steal sweep gathers its loot in, so
// steady-state refills and steals allocate nothing. open is the start of
// the owner's open compute stretch (0 = none) and compute the closed
// stretches' time not yet folded into the manager's total — the time of
// the tasks in done.
type shard struct {
	dq        *deque
	done      []core.Task
	refillBuf []core.Task
	open      clock.Stamp
	compute   time.Duration
}

// closeStretch ends the owner's open compute stretch, if any, at at — read
// here when the caller has not read the clock since the stretch began —
// and returns that reading.
func (sh *shard) closeStretch(at clock.Stamp) clock.Stamp {
	at = at.OrNow()
	if sh.open != 0 {
		sh.compute += at.Sub(sh.open)
		sh.open = 0
	}
	return at
}

func newSharded(sm StateMachine, cfg Config) *sharded {
	m := &sharded{
		runState: runState{sm: sm},
		met:      cfg.Metrics,
		cap:      cfg.DequeCap,
		batch:    cfg.Batch,
		shards:   make([]shard, cfg.Workers),
	}
	if m.cap <= 0 {
		m.cap = lookAhead
	}
	if m.batch <= 0 {
		m.batch = 8
	}
	for i := range m.shards {
		m.shards[i].dq = newDeque(m.cap)
		// cap covers a refill and a sweep's loot, half of a victim that
		// holds at most cap-1 tasks: neither ever grows the scratch.
		m.shards[i].refillBuf = make([]core.Task, 0, m.cap)
	}
	if m.met != nil {
		m.met.BatchSize.Set(int64(m.cap))
	}
	return m
}

// Enter is the completion path then the dispatch path: the sharded manager
// already enters the global lock once per batch rather than once per task,
// so there is nothing further to fuse. The dispatch fast path is one
// lock-free deque pop and no clock reading — the stamp returned is the
// caller's own: its reading, where the stretch it closed reopens, or zero,
// and the open stretch runs on — then a steal sweep, then the global refill
// path, which flushes this worker's completion batch and absorbs deferred
// management before declaring the state machine dry. Whatever leaves the
// fast path closes the stretch first.
func (m *sharded) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	sh := &m.shards[w]
	if at != 0 {
		sh.closeStretch(at)
	}
	applied := false
	if done.ID != 0 {
		at, applied = m.complete(w, done, at)
	}
	if ask == AskNone || m.failed.Load() {
		return core.Task{}, sh.closeStretch(at), false, applied
	}
	if t, ok := sh.dq.popBottom(); ok {
		if at != 0 {
			sh.open = at
		}
		return t, at, true, applied
	}
	t, at, ok := m.steal(w, sh.closeStretch(at))
	if !ok {
		var flushed bool
		t, at, ok, flushed = m.refill(w, at)
		applied = applied || flushed
	}
	if ok {
		sh.open = at
	}
	return t, at, ok, applied
}

// steal sweeps the other shards and CAS-steals up to half of the first
// non-empty deque it finds, keeping the last task stolen to run and
// transferring the rest into this worker's own deque. The owner pops the
// bottom (the state machine's priority order), so thieves taking the top
// trade a small priority inversion for a single CAS per task and zero
// allocation. The sweep start rotates per call (stealTick): a fixed w+1
// start would make every starving worker hammer the same neighbor first
// under contention. Sweep time — from the caller's latest reading at to
// the one reading taken when the sweep ends — is charged to stealNS: it is
// management work done outside the global lock.
func (m *sharded) steal(w int, at clock.Stamp) (core.Task, clock.Stamp, bool) {
	if len(m.shards) < 2 {
		return core.Task{}, at, false
	}
	t, won := m.sweep(w)
	now := clock.Now()
	m.stealNS.Add(int64(now - at))
	if m.met != nil {
		m.met.StealAttempts.Inc(w)
		if won {
			m.met.StealWins.Inc(w)
		} else {
			m.met.StealLoses.Inc(w)
		}
	}
	return t, now, won
}

// sweep is one pass over the other shards. The loot is gathered in the
// owner's refillBuf in steal order and all but its last task pushed with
// one call, so the last task stolen — the highest-priority one — is the
// one run, and the rest run last-stolen-first. won is false when the
// sweep stole nothing.
func (m *sharded) sweep(w int) (t core.Task, won bool) {
	n := len(m.shards)
	sh := &m.shards[w]
	start := int(m.stealTick.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if idx == w {
			continue
		}
		v := m.shards[idx].dq
		k := v.size()
		if k <= 0 {
			continue
		}
		loot := sh.refillBuf[:0]
		for take := (k + 1) / 2; int64(len(loot)) < take; {
			t, ok := v.steal()
			if !ok {
				break
			}
			loot = append(loot, t)
		}
		sh.refillBuf = loot[:0]
		if last := len(loot) - 1; last >= 0 {
			sh.dq.pushBottomN(loot[:last])
			return loot[last], true
		}
	}
	return core.Task{}, false
}

// refill is the global-lock path: flush this worker's completion batch,
// pull a deque refill, and absorb deferred management (successor
// splitting, incremental composite-map builds) before declaring the state
// machine dry. ok=false means the program is done, the run was aborted, or
// nothing is dispatchable right now. applied reports that a pass flushed a
// nonempty batch into the state machine.
//
// One reading closes each management interval — after the flush and the
// NextTasks pull (and any deferred unit before them) — and opens the next,
// so a refill that hands out up to cap tasks reads the clock once, twice
// when the lock was contended.
func (m *sharded) refill(w int, at clock.Stamp) (_ core.Task, _ clock.Stamp, _, applied bool) {
	t0 := m.enter(at)
	defer m.mu.Unlock()
	sh := &m.shards[w]
	for {
		if m.err != nil {
			return core.Task{}, t0, false, applied
		}
		applied = m.flushLocked(w) || applied
		var ts []core.Task
		// A recovered completion-processing panic may have left the state
		// machine inconsistent; do not touch it again.
		if m.err == nil {
			ts, _ = m.sm.NextTasks(sh.refillBuf[:0], m.cap)
			sh.refillBuf = ts[:0]
		}
		// Reverse push: the owner's popBottom then yields ts[1], ts[2], ...
		// in the state machine's priority order, and thieves steal from
		// ts[len-1], the lowest-priority end.
		if len(ts) > 1 {
			slices.Reverse(ts[1:])
			sh.dq.pushBottomN(ts[1:])
		}
		t0 = m.charge(t0)
		if len(ts) > 0 {
			return ts[0], t0, true, applied
		}
		if m.err != nil || m.sm.Done() || !m.sm.HasDeferred() {
			return core.Task{}, t0, false, applied
		}
		// The next pass's reading charges the deferred unit.
		_, _ = m.sm.DeferredMgmt()
	}
}

// complete accumulates t in worker w's local batch, submitting the batch
// to the state machine in one lock acquisition when it fills. A zero at
// comes back zero unless the batch was flushed.
func (m *sharded) complete(w int, t core.Task, at clock.Stamp) (clock.Stamp, bool) {
	sh := &m.shards[w]
	sh.done = append(sh.done, t)
	if len(sh.done) < m.batch {
		return at, false
	}
	return m.flush(w, at), true
}

// flush applies worker w's completion batch under the global lock,
// charging the visit from at (see runState.enter) to the reading it
// returns. The worker's compute stretch ends where the visit begins: at,
// read here when the caller has not read the clock since the stretch began.
// A batch dropped because the run has failed charges nothing: a failed
// run's Mgmt must not move under a report already built from it.
func (m *sharded) flush(w int, at clock.Stamp) clock.Stamp {
	t0 := m.enter(m.shards[w].closeStretch(at))
	defer m.mu.Unlock()
	if !m.flushLocked(w) {
		return t0
	}
	return m.charge(t0)
}

// flushLocked applies worker w's accumulated completions to the state
// machine, folding their count and compute time — the worker's stretches
// closed since its last visit — into the manager's totals, and reports
// whether a batch was applied. Caller holds m.mu and has closed w's stretch.
func (m *sharded) flushLocked(w int) bool {
	sh := &m.shards[w]
	if len(sh.done) == 0 {
		return false
	}
	// A batch arriving after the run failed (abort, cancellation, earlier
	// panic) is dropped, not applied or counted — nothing may mutate the
	// state machine or the totals after the failure point, because the pool
	// and Job.Wait read both as soon as the job is retired.
	applied := m.err == nil
	if applied {
		m.tasks += int64(len(sh.done))
		m.compute += sh.compute
		if err := applyBatch(m.sm, sh.done); err != nil {
			m.failLocked(err)
		}
	}
	sh.done, sh.compute = sh.done[:0], 0
	return applied
}

// Flush submits worker w's accumulated completion batch to the state
// machine. The pool calls it when a worker switches jobs, so a job's last
// completions cannot linger in the batch of a worker now busy elsewhere.
func (m *sharded) Flush(w int, at clock.Stamp) (clock.Stamp, bool) {
	if len(m.shards[w].done) == 0 {
		return at, false
	}
	return m.flush(w, at), true
}

// Join and SetNotify are no-ops: management runs on the workers, inside
// Enter.
func (m *sharded) Join()            {}
func (m *sharded) SetNotify(func()) {}

// Abort terminates the run with err; the run contract (runState) refuses
// it once the state machine has completed.
func (m *sharded) Abort(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abortLocked(err)
}

// Totals adds the steal sweeps' management time, spent outside the lock,
// to the run contract's totals.
func (m *sharded) Totals() (compute, mgmt time.Duration, tasks int64) {
	compute, mgmt, tasks = m.runState.Totals()
	return compute, mgmt + time.Duration(m.stealNS.Load()), tasks
}
