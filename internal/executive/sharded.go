package executive

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
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
//     priority order, so the owner's popBottom consumes them in the state
//     machine's priority order while thieves steal the lowest-priority
//     end.
//   - Batched completion: completions accumulate per worker and are
//     applied to the state machine in one lock acquisition when the batch
//     fills or at the next refill, whichever comes first.
//   - Work stealing: a worker whose deque drains during rundown sweeps the
//     other shards and CAS-steals up to half of the first non-empty deque
//     it finds into its own — no lock, no allocation — before falling back
//     to the global refill path.
//   - Adaptive batching (Config.Adaptive): cap and batch are retuned
//     online by a Tuner from the observed management and idle shares each
//     refill epoch; see adaptive.go.
//
// Invariants the stall detector relies on: a worker only parks after its
// deque is empty, a steal sweep failed, and its completion batch was
// flushed under the global lock; nothing refills a parked worker's deque
// or batch. So when every worker is parked, no task is held anywhere
// outside the state machine and InFlight()==0 identifies a true stall.
type sharded struct {
	mu   sync.Mutex // guards sm, cap, waiting, err, mgmt, idle
	cond *sync.Cond

	sm      StateMachine
	workers int
	rec     *trace.Recorder // flight recorder (nil = tracing off)
	met     *telemetry.Set  // steal/retune counters (nil = metrics off)
	cap     int             // deque refill batch size, guarded by mu (the tuner moves it)

	// batch is the completion batch size. It is read lock-free on the
	// per-task completion path and rewritten under mu by the tuner, hence
	// atomic.
	batch atomic.Int32

	shards []shard
	failed atomic.Bool // fast-path abort flag, mirrors err != nil

	// stealTick rotates the steal-sweep start position across calls so
	// starving workers spread their first probes over different victims
	// instead of all hammering the same neighbor.
	stealTick atomic.Uint64
	// stealNS accumulates time spent inside steal sweeps (CAS loops and
	// deque transfers outside the global lock). It is management work —
	// the sharded analogue of executive dispatch — and is folded into
	// Mgmt() so computation-to-management ratios do not undercount
	// sharded management.
	stealNS atomic.Int64

	// Adaptive controller state, guarded by mu; tuner is nil when
	// adaptivity is disabled. lockNS accumulates time spent *acquiring*
	// the global lock (contention wait, the amortizable per-visit
	// overhead the tuner steers on — distinct from mgmt, the time spent
	// inside it).
	tuner      *Tuner
	lockNS     time.Duration
	hoardIdle  time.Duration // parked time that began with peer deques nonempty
	lockStarve time.Duration // parked time that began with the mgmt path occupied
	epochStart clock.Stamp
	epochLock  time.Duration // lockNS snapshot at epoch start
	epochHI    time.Duration // hoardIdle snapshot at epoch start
	epochLS    time.Duration // lockStarve snapshot at epoch start

	// visitors counts workers currently inside the global management path
	// (refill, batch flush). Maintained only when the tuner is enabled;
	// read at park time to classify the wait: parking while another
	// worker occupies the path is lock starvation — the signal the
	// overhead share cannot see at large P, because cond-parked waiters
	// never touch the mutex.
	visitors atomic.Int32

	// Accumulators, guarded by mu.
	mgmt    time.Duration
	idle    time.Duration
	waiting int
	err     error
}

// shard is one worker's local state. dq is the lock-free task deque: the
// owner pushes refills and pops the bottom; thieves CAS the top. done is
// the owner-only completion batch and refillBuf the owner-only scratch the
// refill path hands to NextTasks, so steady-state refills and steals
// allocate nothing.
type shard struct {
	dq        *deque
	done      []core.Task
	refillBuf []core.Task
}

// adaptiveEpoch is the minimum wall time between tuner observations.
const adaptiveEpoch = time.Millisecond

func newSharded(sm StateMachine, cfg Config) *sharded {
	dequeCap, batch := cfg.DequeCap, cfg.Batch
	if dequeCap <= 0 {
		dequeCap = 16
	}
	if batch <= 0 {
		batch = 8
	}
	m := &sharded{
		sm:      sm,
		workers: cfg.Workers,
		rec:     cfg.Trace,
		met:     cfg.Metrics,
		cap:     dequeCap,
		shards:  make([]shard, cfg.Workers),
	}
	m.batch.Store(int32(batch))
	for i := range m.shards {
		m.shards[i].dq = newDeque(dequeCap)
	}
	if cfg.Adaptive {
		m.tuner = NewTuner(TunerConfig{
			Cap: dequeCap, Batch: batch, MgmtTarget: cfg.MgmtTarget,
		})
		m.cap = m.tuner.Cap()
		m.batch.Store(int32(m.tuner.Batch()))
	}
	if m.met != nil {
		m.met.BatchSize.Set(int64(m.cap))
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *sharded) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	t0 := clock.Now()
	m.sm.Start()
	m.epochStart = clock.Now()
	m.mgmt += m.epochStart.Sub(t0)
}

// Enter is the completion path then the dispatch path: the sharded manager
// already enters the global lock once per batch rather than once per task,
// so there is nothing further to fuse. The dispatch fast path is one
// lock-free deque pop and no clock reading — the stamp returned is the
// caller's own, so the task's compute interval starts where the worker's
// previous interval ended — then a steal sweep, then the global refill
// path, which flushes this worker's completion batch and absorbs deferred
// management before declaring the state machine dry, and parks only for
// AskWait.
func (m *sharded) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	applied := false
	if done.ID != 0 {
		at, applied = m.complete(w, done, at)
	}
	if ask == AskNone || m.failed.Load() {
		return core.Task{}, at, false, applied
	}
	if t, ok := m.shards[w].dq.popBottom(); ok {
		return t, at, true, applied
	}
	t, at, ok := m.steal(w, at)
	if ok {
		return t, at, true, applied
	}
	t, at, ok, flushed := m.refill(w, at, ask == AskWait)
	return t, at, ok, applied || flushed
}

// steal sweeps the other shards and CAS-steals up to half of the first
// non-empty deque it finds, transferring the loot into this worker's own
// deque and popping one task to run. The owner pops the bottom (the state
// machine's priority order), so thieves taking the top trade a small
// priority inversion for a single CAS per task and zero allocation. The
// sweep start rotates per call (stealTick): a fixed w+1 start would make
// every starving worker hammer the same neighbor first under contention.
// Sweep time — from the caller's latest reading at to the one reading
// taken when the sweep ends — is charged to stealNS: it is management
// work done outside the global lock.
func (m *sharded) steal(w int, at clock.Stamp) (core.Task, clock.Stamp, bool) {
	if len(m.shards) < 2 {
		return core.Task{}, at, false
	}
	var ring *trace.Ring
	if m.rec != nil {
		ring = m.rec.Ring(w)
		ring.Record(trace.KStealAttempt, m.rec.At(at), int32(w), 0, -1, 0, 0, 0)
	}
	t, victim, got := m.sweep(w)
	now := clock.Now()
	m.stealNS.Add(int64(now - at))
	won := got > 0
	if ring != nil {
		if won {
			// Arg carries the victim; Lo the number of tasks taken.
			ring.Record(trace.KStealWin, m.rec.At(now), int32(w), 0,
				int32(t.Phase), uint32(got), 0, int64(victim))
		} else {
			ring.Record(trace.KStealLose, m.rec.At(now), int32(w), 0, -1, 0, 0, 0)
		}
	}
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

// sweep is one pass over the other shards. It returns the task to run,
// the victim's index and how many tasks were taken; got == 0 means the
// sweep lost.
func (m *sharded) sweep(w int) (t core.Task, victim int, got int64) {
	n := len(m.shards)
	own := m.shards[w].dq
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
		take := (k + 1) / 2
		got = 0
		for got < take {
			t, ok := v.steal()
			if !ok {
				break
			}
			own.pushBottom(t)
			got++
		}
		if got == 0 {
			continue
		}
		// The last transfer is the highest-priority task stolen; run it.
		if t, ok := own.popBottom(); ok {
			return t, idx, got
		}
		// Everything we moved was re-stolen already; keep sweeping.
	}
	return core.Task{}, 0, 0
}

// refill is the global-lock path: flush this worker's completion batch,
// pull a deque refill, absorb deferred management, or (when park is set)
// park. Returning ok=false means the program is done, the run was
// aborted, the manager detected a stall, or — non-parking callers only —
// nothing is dispatchable right now. applied reports that a pass flushed a
// nonempty batch into the state machine.
//
// One reading closes each management interval — after the flush and the
// NextTasks pull (and any deferred unit before them), after a park — and
// opens the next, so a refill that hands out up to cap tasks reads the
// clock once, twice when the lock was contended.
func (m *sharded) refill(w int, at clock.Stamp, park bool) (_ core.Task, _ clock.Stamp, _, applied bool) {
	if m.tuner != nil {
		m.visitors.Add(1)
		defer m.visitors.Add(-1)
	}
	t0 := m.enter(at)
	defer m.mu.Unlock()
	triedSteal := false
	for {
		if m.err != nil {
			return core.Task{}, t0, false, applied
		}
		applied = m.flushLocked(w) || applied
		var ts []core.Task
		// A recovered completion-processing panic may have left the state
		// machine inconsistent; do not touch it again.
		if m.err == nil {
			ts, _ = m.sm.NextTasks(m.shards[w].refillBuf[:0], m.cap)
			m.shards[w].refillBuf = ts[:0]
		}
		if len(ts) > 0 {
			sh := &m.shards[w]
			// Reverse push: the owner's popBottom then yields ts[1],
			// ts[2], ... in the state machine's priority order, and
			// thieves steal from ts[len-1], the lowest-priority end.
			for i := len(ts) - 1; i >= 1; i-- {
				sh.dq.pushBottom(ts[i])
			}
			// Wake parked peers — one per task they could acquire: they
			// can pull their own refill from the state machine, or —
			// when this refill drained it — steal from the deque we
			// just filled.
			if m.waiting > 0 {
				if avail := len(ts) - 1 + m.sm.ReadyTasks(); avail > 0 {
					m.wakeLocked(avail)
				} else {
					m.wakeStealerLocked()
				}
			}
		}
		now := clock.Now()
		m.mgmt += now.Sub(t0)
		t0 = now
		if m.err != nil {
			return core.Task{}, now, false, applied
		}
		m.retuneLocked(now)
		if len(ts) > 0 {
			return ts[0], now, true, applied
		}
		if m.sm.Done() {
			m.cond.Broadcast()
			return core.Task{}, now, false, applied
		}

		// Idle executive moment: absorb deferred management (successor
		// splitting, incremental composite-map builds) before parking.
		// The next pass's reading charges it.
		if m.sm.HasDeferred() {
			_, _ = m.sm.DeferredMgmt()
			continue
		}

		if !park {
			return core.Task{}, now, false, applied
		}

		// The state machine is dry, but a peer's deque may have refilled
		// since our last sweep: try stealing once more before parking.
		if !triedSteal {
			m.mu.Unlock()
			t, now, ok := m.steal(w, now)
			t0 = m.enter(now)
			triedSteal = true
			if ok {
				return t, t0, true, applied
			}
			continue
		}

		// Every other worker parked only after flushing its batch and
		// emptying its deque, so InFlight()==0 here means no task exists
		// anywhere outside the state machine: a true stall.
		if m.waiting+1 == m.workers && m.sm.InFlight() == 0 {
			m.failLocked(fmt.Errorf("executive: stalled at phase %d: all workers idle, nothing in flight",
				m.sm.CurrentPhase()))
			return core.Task{}, now, false, applied
		}
		// For the adaptive controller: a park that begins while peer
		// deques still hold tasks is starvation a smaller refill batch
		// would have fed (hoarded idle); a park with every deque empty
		// is a genuine rundown tail, which must not shrink the batch. A
		// park that begins while another worker actively occupies the
		// management path is lock starvation — the grow signal that
		// scales with P where the overhead share saturates; see
		// adaptive.go. visitors counts every worker inside the path,
		// including this one and every cond-parked waiter (they park
		// inside refill, so their increment persists through the wait);
		// subtracting m.waiting — stable here, under mu — leaves only
		// the active occupants, so a phase barrier or rundown tail full
		// of parked peers does not read as a saturated lock.
		hoardedAtPark, lockBusyAtPark := false, false
		if m.tuner != nil {
			for i := range m.shards {
				if m.shards[i].dq.size() > 0 {
					hoardedAtPark = true
					break
				}
			}
			lockBusyAtPark = m.visitors.Load()-int32(m.waiting) > 1
		}
		// Idle begins at the reading that closed the last management
		// interval and ends at the one that opens the next.
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KPark, m.rec.At(now), int32(w), 0, -1, 0, 0, 0)
		}
		m.waiting++
		m.cond.Wait()
		m.waiting--
		t0 = clock.Now()
		d := t0.Sub(now)
		m.idle += d
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KUnpark, m.rec.At(t0), int32(w), 0, -1, 0, 0, int64(d))
		}
		if hoardedAtPark {
			m.hoardIdle += d
		}
		if lockBusyAtPark {
			m.lockStarve += d
		}
		triedSteal = false
	}
}

// enter acquires m.mu for a caller whose latest reading is at and returns
// the stamp management time is charged from (see enter in serial.go). A
// contended acquisition's wait — from at to the reading taken once the
// lock is held — goes to lockNS: the per-visit overhead batch sizing
// amortizes, which the adaptive controller steers on.
func (m *sharded) enter(at clock.Stamp) clock.Stamp {
	now := enter(&m.mu, at)
	m.lockNS += now.Sub(at)
	return now
}

// retuneLocked feeds the adaptive controller one epoch when enough wall
// time has passed since the last observation: the lock-acquisition wait
// is the amortizable overhead, and parked time that began with peer
// deques nonempty the hoarded-idle (starvation) share. Caller holds m.mu
// and passes its latest reading.
func (m *sharded) retuneLocked(now clock.Stamp) {
	if m.tuner == nil {
		return
	}
	elapsed := now.Sub(m.epochStart)
	if elapsed < adaptiveEpoch {
		return
	}
	capacity := int64(elapsed) * int64(m.workers)
	cap, batch, changed := m.tuner.Observe(capacity,
		int64(m.lockNS-m.epochLock), int64(m.hoardIdle-m.epochHI),
		int64(m.lockStarve-m.epochLS))
	if changed {
		m.cap = cap
		m.batch.Store(int32(batch))
		if m.rec != nil {
			m.rec.Emit(trace.KRetune, m.rec.At(now), -1, 0, -1, 0, 0, int64(cap))
		}
		if m.met != nil {
			m.met.Retunes.Inc(0)
			m.met.BatchSize.Set(int64(cap))
		}
	}
	m.epochStart = now
	m.epochLock = m.lockNS
	m.epochHI = m.hoardIdle
	m.epochLS = m.lockStarve
}

// wakeLocked wakes up to n parked workers — targeted Signals instead of a
// Broadcast thundering herd when fewer tasks than sleepers exist. Caller
// holds m.mu.
func (m *sharded) wakeLocked(n int) {
	if n >= m.waiting {
		m.cond.Broadcast()
		return
	}
	for i := 0; i < n; i++ {
		m.cond.Signal()
	}
}

// complete accumulates t in worker w's local batch, submitting the batch
// to the state machine in one lock acquisition when it fills.
func (m *sharded) complete(w int, t core.Task, at clock.Stamp) (clock.Stamp, bool) {
	sh := &m.shards[w]
	sh.done = append(sh.done, t)
	if len(sh.done) < int(m.batch.Load()) {
		return at, false
	}
	return m.flush(w, at), true
}

// flush applies worker w's completion batch under the global lock,
// charging the visit from at (see enter) to the reading it returns.
func (m *sharded) flush(w int, at clock.Stamp) clock.Stamp {
	if m.tuner != nil {
		m.visitors.Add(1)
		defer m.visitors.Add(-1)
	}
	t0 := m.enter(at)
	defer m.mu.Unlock()
	m.flushLocked(w)
	now := clock.Now()
	m.mgmt += now.Sub(t0)
	return now
}

// flushLocked applies worker w's accumulated completions to the state
// machine. Completions release successor work, so parked peers are woken —
// one Signal per task now ready (or one for pending deferred management)
// rather than an unconditional Broadcast; completion of the program or an
// error still releases everyone. It reports whether a batch was applied.
// Caller holds m.mu.
func (m *sharded) flushLocked(w int) bool {
	sh := &m.shards[w]
	if len(sh.done) == 0 {
		return false
	}
	if m.err != nil {
		// The run already failed (abort, cancellation, earlier panic): the
		// batch is dropped, not applied — nothing may mutate the state
		// machine after the failure point, because the pool and Job.Wait
		// read its statistics as soon as the job is retired.
		sh.done = sh.done[:0]
		return false
	}
	if err := applyBatch(m.sm, sh.done); err != nil {
		m.failLocked(err)
	}
	sh.done = sh.done[:0]
	switch {
	case m.err != nil || m.sm.Done():
		m.cond.Broadcast()
	case m.waiting > 0:
		if avail := m.sm.ReadyTasks(); avail > 0 {
			m.wakeLocked(avail)
		} else if m.sm.HasDeferred() {
			// No task is ready but deferred management is: one worker
			// can absorb it (and wake the others if it releases work).
			m.cond.Signal()
		} else {
			m.wakeStealerLocked()
		}
	}
	return true
}

// wakeStealerLocked wakes one parked worker when the state machine is dry
// but a peer's deque still holds stealable tasks. A worker can park in
// the window between its failed steal sweep and a peer's refill landing;
// without this, a flush or refill that released nothing new would leave
// it asleep while the remaining work drains single-threaded (the old
// unconditional Broadcast covered the window by brute force). The woken
// worker re-sweeps before re-parking, and its own later flushes wake the
// next stealer if deques are still nonempty. Caller holds m.mu.
func (m *sharded) wakeStealerLocked() {
	for i := range m.shards {
		if m.shards[i].dq.size() > 0 {
			m.cond.Signal()
			return
		}
	}
}

// failLocked records err (first wins) and releases everyone. Caller holds
// m.mu.
func (m *sharded) failLocked(err error) {
	if m.err == nil {
		m.err = err
		recordAbort(m.rec)
	}
	m.failed.Store(true)
	m.cond.Broadcast()
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

// Outcome reports completion and the run error in one lock entry. A
// failed run's state machine is not consulted (a completion-processing
// panic may have left it inconsistent).
func (m *sharded) Outcome() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil && m.sm.Done(), m.err
}

// InFlight reports dispatched-but-incomplete tasks, including tasks
// parked in worker-local deques and completions awaiting a batch flush.
func (m *sharded) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sm.InFlight()
}

// Abort terminates the run with err — unless the state machine has
// already completed (checked under the global lock, no window): a late
// cancellation must not poison a fully-executed run's results. Callers
// observe the refusal through Outcome's nil error.
func (m *sharded) Abort(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil && m.sm.Done() {
		return
	}
	m.failLocked(err)
}

func (m *sharded) Mgmt() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mgmt + time.Duration(m.stealNS.Load())
}

func (m *sharded) Idle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idle
}
