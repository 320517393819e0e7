package executive

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// async is the dedicated-management-processor Manager: the paper's "some
// real parallel machines may provide separate processors for the
// executive" (the sim's Dedicated model) realized on hardware. One
// background management goroutine runs the state machine; while the ready
// lanes are stocked workers never touch the state-machine lock.
//
//   - Lanes (lane.go): each worker has a ready lane, a bounded Chase-Lev
//     deque of ReadyCap/Workers tasks, and a completion lane, a bounded
//     single-producer single-consumer ring. Whoever holds mu owns every
//     ready lane and tops each up with one NextTasks and one pushBottomN,
//     starting with the lane of the worker that runs the cycle. A worker
//     steals from its own lane first, then from the other lanes, oldest
//     first; one steal is the whole per-task dispatch cost on the worker
//     side. A worker that finds every lane empty and the executive busy is
//     told so and parks in the pool, which the management goroutine wakes
//     through the progress callback (SetNotify).
//   - Completions: a worker writes its completions into its own lane with
//     plain stores and publishes them with one store every Config.Batch
//     completions, and whenever its compute stretch closes (every lane
//     dry, AskNone, a stamped caller, a failed run, a full lane) and on
//     Flush. A management cycle drains each lane's published run with one
//     store and applies it in one CompleteBatch.
//   - Deferred management: the management goroutine runs DeferredMgmt
//     whenever the lanes together hold more than Config.LowWater tasks —
//     the paper's "overlap deferred management with computation", here
//     genuinely concurrent on a separate thread — and also when a refill
//     comes up empty, because deferred work may be the only source of new
//     releases.
//   - Fallback: when GOMAXPROCS leaves the management goroutine no spare
//     core it sits descheduled while workers starve on empty lanes. A
//     worker that finds every lane empty and the executive idle (mu free)
//     therefore enters it — runs one management cycle inline, the way a
//     PAX processor that needed work entered the executive — instead of
//     parking until the management goroutine gets a core. It never waits
//     behind a live management goroutine. The same path absorbs a full
//     completion lane.
//
// Measurement: management time is the state-machine time of management
// cycles (wherever they ran). The management goroutine itself is not a
// worker: like the sim's Dedicated model, its processor is not in the
// utilization denominator — that is exactly the resource trade the paper's
// comparison prices. A worker's compute stretch is measured by the worker
// itself and stays open across its stocked hand-offs — a steal and a plain
// write into its completion lane, no reading — as across the sharded
// manager's deque pops; its length travels with the completion that
// closes it (the hand-offs inside it queue zero), and the cycle that
// applies the completion adds it to the totals under mu.
//
// Invariants the pool's stall probe relies on: every task popped from the
// state machine is immediately in a ready lane, held by a worker, or
// queued/applied as a completion, so the state machine's InFlight count
// covers everything outside it. A worker publishes its completion lane
// before Enter reports it dry, before an AskNone entry returns and before
// Flush returns, so when every worker is parked every queued completion is
// visible to the drain. The management goroutine parks on the doorbell
// between cycles; workers ring it off the fast path — whenever they
// publish there or find every lane empty — and Abort rings it, so the
// cycle after the last completion — or after the pool's stall verdict —
// always observes the final state.
type async struct {
	// runState's mu also serializes state-machine access between the
	// management goroutine and inline-fallback cycles run on worker
	// goroutines. Its holder owns every ready lane and is the one consumer
	// of every completion lane.
	runState

	met *telemetry.Set // ready-lane occupancy gauge (nil = metrics off)

	readyCap int // the lanes' total capacity
	laneCap  int // one ready lane's capacity: readyCap/Workers, at least 1
	lowWater int // total occupancy above which deferred management overlaps
	batch    int // completions a worker queues before it publishes them

	lanes []lane
	wake  chan struct{} // management doorbell, capacity 1

	finished atomic.Bool   // set under mu exactly once when the run is over
	started  atomic.Bool   // Start spawned the management goroutine
	loopDone chan struct{} // closed when the management goroutine exits

	notify func() // pool progress callback; nil outside a pool

	inlineCycles atomic.Int64 // fallback cycles run on worker goroutines

	// Management-side scratch, guarded by mu: the refill buffer handed
	// to NextTasks and the drain buffer handed to CompleteBatch, so
	// steady-state cycles allocate nothing.
	refillBuf []core.Task
	drainBuf  []core.Task
}

func newAsync(sm StateMachine, cfg Config) *async {
	readyCap, low := core.ReadyBounds(cfg.ReadyCap, cfg.LowWater, lookAhead*cfg.Workers)
	batch := cfg.Batch
	if batch <= 0 {
		batch = 8
	}
	laneCap := max(readyCap/cfg.Workers, 1)
	// Between two drains a worker completes what its own lane held, what
	// it steals from the others and the task in hand; the lane takes two
	// ready lanes' worth and a publication batch. Overflow is not lost
	// either way: a full push publishes and falls back to an inline drain.
	compCap := pow2(2*laneCap + batch)
	return &async{
		runState: runState{sm: sm},
		met:      cfg.Metrics,
		readyCap: readyCap,
		laneCap:  laneCap,
		lowWater: low,
		batch:    batch,
		lanes:    newLanes(cfg.Workers, laneCap, compCap),
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
		// A refill asks for at most one lane's room and a drain takes at
		// most one completion lane, so neither scratch ever grows.
		refillBuf: make([]core.Task, 0, laneCap),
		drainBuf:  make([]core.Task, 0, compCap),
	}
}

// SetNotify registers the pool progress callback. Call before Start.
func (m *async) SetNotify(fn func()) { m.notify = fn }

// Join blocks until the management goroutine has exited. Call only after
// the run is over (workers exited or Abort called); it is the point after
// which the state machine is quiescent and its statistics safe to read. A
// manager never started (a pool job retired while queued) has none.
func (m *async) Join() {
	if m.started.Load() {
		<-m.loopDone
	}
}

// Start activates the program, performs the first refill synchronously so
// workers find work immediately, and spawns the management goroutine.
func (m *async) Start() {
	m.mu.Lock()
	t0 := clock.Now()
	m.sm.Start()
	m.refillLocked(0)
	m.charge(t0)
	m.mu.Unlock()
	m.started.Store(true)
	go m.loop()
}

// loop is the management goroutine: run cycles until the program is done
// or aborted; park on the doorbell in between.
func (m *async) loop() {
	defer close(m.loopDone)
	for {
		if !m.cycle() {
			return
		}
		<-m.wake
	}
}

// cycle runs one management pass and reports whether the loop should
// continue. The pool progress callback fires outside mu (the pool takes
// its own lock inside it, and holds that lock while probing this manager).
// The management goroutine is no worker: its refills start at lane 0.
func (m *async) cycle() bool {
	m.mu.Lock()
	alive, progressed := m.cycleLocked(clock.Now(), 0)
	m.mu.Unlock()
	if progressed && m.notify != nil {
		m.notify()
	}
	return alive
}

// cycleLocked is the management pass: drain completions, top up the ready
// lanes starting with lane first, overlap deferred management, detect
// completion. Caller holds mu. It returns alive=false when the run is over
// and progressed=true when completions were applied, tasks were buffered,
// or the run finished — the events a pool parked elsewhere must hear
// about.
//
// The cycle keeps one clock chain: t0 is the caller's reading after it
// took mu, and each pass's single reading (charge) closes one management
// interval and opens the next.
func (m *async) cycleLocked(t0 clock.Stamp, first int) (alive, progressed bool) {
	if m.finished.Load() {
		return false, false
	}
	for {
		// The failure check precedes the drain: once the run has failed
		// (abort, cancellation, panic) queued completions are dropped,
		// never applied — the same nothing-mutates-the-state-machine-
		// after-the-failure-point invariant the serial and sharded
		// managers enforce on their submission paths.
		if m.failed.Load() {
			m.finishLocked()
			return false, true
		}
		drained := m.drainLocked()
		if drained {
			progressed = true
		}
		if m.failed.Load() {
			// A recovered completion-processing panic may have left the
			// state machine inconsistent; do not touch it again.
			m.charge(t0)
			m.finishLocked()
			return false, true
		}
		refilled := m.refillLocked(first)
		if refilled {
			progressed = true
		}
		done := m.sm.Done()
		t0 = m.charge(t0)
		if done {
			m.finishLocked()
			return false, true
		}

		// Deferred management: overlap it with computation while the
		// lanes are healthy, and absorb it whenever a refill came up
		// empty — it may be the only source of new releases. One unit
		// per iteration keeps the loop responsive to arriving completions.
		// The next pass's reading charges it.
		if m.sm.HasDeferred() && (m.buffered() > int64(m.lowWater) || !refilled) {
			_, _ = m.sm.DeferredMgmt()
			continue
		}

		if !drained && !refilled {
			// Nothing to apply, nothing to hand out, no deferred work: wait
			// for the doorbell. If nothing is in flight either the
			// scheduler has stalled, which is the pool's verdict to reach
			// (every worker parked, InFlight zero) — its Abort rings.
			return true, progressed
		}

		// Progress was made; go around again — more completions may have
		// been published while we refilled.
	}
}

// drainLocked applies each completion lane's published run in one
// CompleteBatch, totalling their count and the compute times that came
// with them. Caller holds mu. Panics in completion processing fail the
// run, as in the other managers.
func (m *async) drainLocked() bool {
	any := false
	for i := range m.lanes {
		buf, compute := m.lanes[i].comp.drain(m.drainBuf[:0])
		m.drainBuf = buf[:0]
		if len(buf) == 0 {
			continue
		}
		any = true
		m.tasks += int64(len(buf))
		m.compute += compute
		if err := applyBatch(m.sm, buf); err != nil {
			m.failLocked(err)
			return any
		}
	}
	return any
}

// refillLocked tops each ready lane up from the state machine, lane first
// first, one NextTasks and one pushBottomN per lane, until the state
// machine runs dry. Caller holds mu, which makes it every lane's owner; a
// lane never grows because only the owner pushes and concurrent steals can
// only make the free-slot count computed first an underestimate.
func (m *async) refillLocked(first int) bool {
	refilled := false
	for i := range m.lanes {
		l := &m.lanes[(first+i)%len(m.lanes)]
		free := m.laneCap - int(l.ready.size())
		if free <= 0 {
			continue
		}
		ts, _ := m.sm.NextTasks(m.refillBuf[:0], free)
		m.refillBuf = ts[:0]
		l.ready.pushBottomN(ts)
		if len(ts) > 0 {
			refilled = true
		}
		if len(ts) < free {
			break // nothing more is ready
		}
	}
	if m.met != nil && refilled {
		// Occupancy right after the top-up; workers steal concurrently,
		// so the gauge is a sample, not an invariant.
		m.met.ReadyOccupancy.Set(m.buffered())
	}
	return refilled
}

// buffered reports the ready lanes' total occupancy: exact for the holder
// of mu as far as pushes go, a moment-in-time estimate as far as steals do.
func (m *async) buffered() int64 {
	var n int64
	for i := range m.lanes {
		n += m.lanes[i].ready.size()
	}
	return n
}

// finishLocked marks the run over: no later cycle touches the state
// machine or the ready lanes. Caller holds mu. The doorbell ring covers
// the case where an inline-fallback cycle finished the run while the
// management goroutine was parked.
func (m *async) finishLocked() {
	m.finished.Store(true)
	m.ring()
}

// ring rings the management doorbell (level-triggered: extra rings while
// one is pending are dropped, and every cycle re-reads all state).
func (m *async) ring() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// tryInlineCycle runs one management cycle on worker w's goroutine if the
// state machine is free — the shared body of every worker-side fallback;
// its refill starts with w's own lane. It never blocks behind a live
// management goroutine, and fires the pool notify outside the lock exactly
// as the management goroutine's own cycle does. at is the worker's latest
// clock reading; the stamp returned is at when no cycle ran and a fresh
// reading after one did, so the cycle's time stays out of the worker's
// next compute interval.
func (m *async) tryInlineCycle(w int, at clock.Stamp) clock.Stamp {
	if !m.mu.TryLock() {
		return at
	}
	m.inlineCycles.Add(1)
	_, progressed := m.cycleLocked(at, w)
	m.mu.Unlock()
	if progressed && m.notify != nil {
		m.notify()
	}
	return clock.Now()
}

// steal takes the oldest task of worker w's own ready lane, or failing
// that of the first other lane that has one. A task taken after Abort is
// dropped — the run's results are void.
func (m *async) steal(w int) (core.Task, bool) {
	n := len(m.lanes)
	for i := 0; i < n; i++ {
		v := w + i
		if v >= n {
			v -= n
		}
		if t, ok := m.lanes[v].ready.steal(); ok {
			if m.failed.Load() {
				return core.Task{}, false
			}
			return t, true
		}
	}
	return core.Task{}, false
}

// Enter hands done to the management goroutine and asks for a task.
//
// The stocked hand-off is the fast path: worker w reports done unstamped
// (at zero) from an open compute stretch and asks for more, and a ready
// lane has a task. One steal, one plain write of done with zero compute
// into w's completion lane, published with one store every Batch
// completions: nothing is read, nobody is woken, the stamp returned is
// zero and the stretch runs on, as across the sharded manager's deque
// pops. What leaves the fast path — every lane dry, AskNone, a failed run,
// a stamped caller, a full completion lane — closes the stretch with one
// reading (complete), and the completion that closes it carries the
// stretch's whole length.
//
// Off the fast path w publishes its completion lane, and rings the
// doorbell when that made anything visible. It then steals; failing that
// it rings the doorbell (so the management goroutine re-evaluates after
// the last completion), enters the executive if it is idle — one inline
// management cycle, never waiting behind a live management goroutine — and
// steals once more. A task it hands out opens a stretch at a reading taken
// once the task is in hand, so the worker's hand-off and any inline cycle
// stay out of Compute: as before they belong to no share (management time
// is the state-machine time of management cycles).
//
// ok=false means "every lane is empty and the executive is busy or has
// nothing to hand out": w's completions are published, the doorbell has
// been rung, and the pool's progress callback (SetNotify) fires when a
// management cycle produces work, waking pool-parked workers. applied is
// always false: the completion was only handed over, and the callback
// reports its application (an inline cycle fires it too).
func (m *async) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	if at == 0 && done.ID != 0 && ask == AskTry && m.lanes[w].open != 0 {
		if t, ok := m.steal(w); ok {
			return m.handOff(w, done, t)
		}
	}
	if done.ID != 0 {
		at = m.complete(w, done, at.OrNow())
	}
	if m.lanes[w].comp.publish() {
		m.ring()
	}
	if ask == AskNone || m.failed.Load() {
		return core.Task{}, at, false, false
	}
	t, ok := m.steal(w)
	if !ok {
		m.ring()
		at = m.tryInlineCycle(w, at)
		if t, ok = m.steal(w); !ok {
			return core.Task{}, at, false, false
		}
	}
	return t, m.dispatch(w), true, false
}

// handOff ends a stocked hand-off once the fast path has stolen t: done
// joins w's completion lane with zero compute, published once Batch are
// pending, and the stretch runs on. A failed run voids t and drops done,
// and a full lane sends done the slow way; either closes the stretch and
// publishes here. (A run that finished without failing has nothing
// buffered, so no steal gets here.)
func (m *async) handOff(w int, done, t core.Task) (core.Task, clock.Stamp, bool, bool) {
	q := &m.lanes[w].comp
	if !m.failed.Load() && q.push(done, 0) {
		if q.pending() >= int64(m.batch) {
			q.publish()
		}
		return t, 0, true, false
	}
	at := m.complete(w, done, clock.Now())
	if q.publish() {
		m.ring()
	}
	if m.failed.Load() {
		return core.Task{}, at, false, false
	}
	return t, m.dispatch(w), true, false
}

// dispatch opens worker w's compute stretch at a reading taken with its
// next task in hand, and returns that reading.
func (m *async) dispatch(w int) clock.Stamp {
	now := clock.Now()
	m.lanes[w].open = now
	return now
}

// complete closes worker w's compute stretch at the reading at and queues
// the completion with the stretch's length in w's completion lane; the
// caller publishes it. A completion arriving after the run failed is
// dropped, matching the other managers' post-failure contract. A full lane
// is published and drained inline, or yielded to whoever owns the state
// machine, until the completion fits.
func (m *async) complete(w int, t core.Task, at clock.Stamp) clock.Stamp {
	l := &m.lanes[w]
	var compute time.Duration
	if l.open != 0 {
		compute = at.Sub(l.open)
		l.open = 0
	}
	if m.failed.Load() || m.finished.Load() {
		return at
	}
	for !l.comp.push(t, compute) {
		// Lane full: the management goroutine is far behind. Help drain
		// inline, or yield to whoever currently owns the state machine.
		if m.failed.Load() || m.finished.Load() {
			return at
		}
		l.comp.publish()
		m.ring()
		at = m.tryInlineCycle(w, clock.Now())
		runtime.Gosched()
	}
	return at
}

// Flush publishes worker w's completion lane and rings the doorbell, so
// its completions are applied promptly once the worker moves to another
// job. It applies nothing itself.
func (m *async) Flush(w int, at clock.Stamp) (clock.Stamp, bool) {
	m.lanes[w].comp.publish()
	m.ring()
	return at, false
}

// Abort terminates the run with err — the run contract (runState) refuses
// it once the state machine has completed — and rings the doorbell so the
// management goroutine observes the verdict.
func (m *async) Abort(err error) {
	m.mu.Lock()
	m.abortLocked(err)
	m.mu.Unlock()
	m.ring()
}

// InlineCycles reports how many management cycles ran on worker
// goroutines through the no-spare-core fallback (diagnostics).
func (m *async) InlineCycles() int64 { return m.inlineCycles.Load() }
