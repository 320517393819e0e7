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
// buffer is stocked workers never touch the state-machine lock.
//
//   - Ready-buffer: workers pull tasks from a bounded Chase-Lev deque
//     (deque.go, Config.ReadyCap slots) the management goroutine keeps
//     topped up via NextTasks. Whoever holds mu is its owner and pushes
//     at the bottom; workers steal from the top, oldest first. One steal
//     is the whole per-task dispatch cost on the worker side; a worker
//     that finds the buffer empty and the executive busy is told so and
//     parks in the pool, which the management goroutine wakes through
//     the progress callback (SetNotify).
//   - Completions: workers push into a lock-free MPSC queue (mpsc.go) and
//     ring the management doorbell; the management goroutine drains the
//     queue in batches of Config.Batch via CompleteBatch.
//   - Deferred management: the management goroutine runs DeferredMgmt
//     whenever the ready-buffer is above Config.LowWater — the paper's
//     "overlap deferred management with computation", here genuinely
//     concurrent on a separate thread — and also when a refill comes up
//     empty, because deferred work may be the only source of new releases.
//   - Fallback: when GOMAXPROCS leaves the management goroutine no spare
//     core it sits descheduled while workers starve on an empty buffer. A
//     worker that finds the buffer empty and the executive idle (mu
//     free) therefore enters it — runs one management cycle inline, the
//     way a PAX processor that needed work entered the executive —
//     instead of parking until the management goroutine gets a core. It
//     never waits behind a live management goroutine. The same path
//     absorbs a full completion queue.
//
// Measurement: management time is the state-machine time of management
// cycles (wherever they ran). The management goroutine itself is not a
// worker: like the sim's Dedicated model, its processor is not in the
// utilization denominator — that is exactly the resource trade the paper's
// comparison prices. A worker's compute stretch is measured by the worker
// itself and stays open across its stocked hand-offs — a steal, a push, a
// doorbell, no reading — as across the sharded manager's deque pops; its
// length travels with the completion that closes it through the queue
// (the hand-offs inside it push zero), and the cycle that applies the
// completion adds it to the totals under mu.
//
// Invariants the pool's stall probe relies on: every task popped from the
// state machine is immediately in the ready buffer, held by a worker, or
// queued/applied as a completion, so the state machine's InFlight count
// covers everything outside it. The management goroutine parks on the
// doorbell between cycles; workers ring it whenever they push a completion
// or find the buffer empty, and Abort rings it, so the cycle after the
// last completion — or after the pool's stall verdict — always observes
// the final state.
type async struct {
	// runState's mu also serializes state-machine access between the
	// management goroutine and inline-fallback cycles run on worker
	// goroutines. Its holder is the ready buffer's owner: only it pushes.
	runState

	met *telemetry.Set // ready-buffer occupancy gauge (nil = metrics off)

	readyCap int
	lowWater int
	batch    int // completion drain chunk per CompleteBatch call

	ready *deque        // bounded ready-buffer; never grows past readyCap
	comp  *mpsc         // completion queue, workers -> management goroutine
	wake  chan struct{} // management doorbell, capacity 1

	finished atomic.Bool   // set under mu exactly once when the run is over
	started  atomic.Bool   // Start spawned the management goroutine
	loopDone chan struct{} // closed when the management goroutine exits

	// open is each worker's open compute stretch — the dispatch stamp of the
	// task it is running, 0 = none — written and read by that worker only,
	// one cache line apiece.
	open []workerStamp

	notify func() // pool progress callback; nil outside a pool

	inlineCycles atomic.Int64 // fallback cycles run on worker goroutines

	// Management-side scratch, guarded by mu: the refill buffer handed
	// to NextTasks and the drain buffer handed to CompleteBatch, so
	// steady-state cycles allocate nothing.
	refillBuf []core.Task
	drainBuf  []core.Task
}

// workerStamp is one worker's private clock.Stamp, padded so neighbours in
// a slice do not share a cache line.
type workerStamp struct {
	at clock.Stamp
	_  [56]byte
}

func newAsync(sm StateMachine, cfg Config) *async {
	readyCap, low := core.ReadyBounds(cfg.ReadyCap, cfg.LowWater, lookAhead*cfg.Workers)
	batch := cfg.Batch
	if batch <= 0 {
		batch = 8
	}
	return &async{
		runState: runState{sm: sm},
		met:      cfg.Metrics,
		readyCap: readyCap,
		lowWater: low,
		batch:    batch,
		open:     make([]workerStamp, cfg.Workers),
		ready:    newDeque(readyCap),
		// Between two drains at most ReadyCap buffered + Workers executing
		// tasks can complete; the extra Workers is racing margin. Overflow
		// is not lost either way: a full push falls back to inline drain.
		comp:     newMPSC(readyCap + 2*cfg.Workers),
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
		// A refill asks for at most ReadyCap tasks and a drain chunk holds
		// Batch, so neither scratch ever grows.
		refillBuf: make([]core.Task, 0, readyCap),
		drainBuf:  make([]core.Task, 0, batch),
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
	m.refillLocked()
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
func (m *async) cycle() bool {
	m.mu.Lock()
	alive, progressed := m.cycleLocked(clock.Now())
	m.mu.Unlock()
	if progressed && m.notify != nil {
		m.notify()
	}
	return alive
}

// cycleLocked is the management pass: drain completions, top up the ready
// buffer, overlap deferred management, detect completion.
// Caller holds mu. It returns alive=false when the run is over and
// progressed=true when completions were applied, tasks were buffered, or
// the run finished — the events a pool parked elsewhere must hear about.
//
// The cycle keeps one clock chain: t0 is the caller's reading after it
// took mu, and each pass's single reading (charge) closes one management
// interval and opens the next.
func (m *async) cycleLocked(t0 clock.Stamp) (alive, progressed bool) {
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
		refilled := m.refillLocked()
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
		// ready buffer is healthy, and absorb it whenever a refill came
		// up empty — it may be the only source of new releases. One unit
		// per iteration keeps the loop responsive to arriving completions.
		// The next pass's reading charges it.
		if m.sm.HasDeferred() && (m.ready.size() > int64(m.lowWater) || !refilled) {
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
		// landed while we refilled.
	}
}

// drainLocked applies queued completions in batches of m.batch, totalling
// their count and the compute times that came with them. Caller holds
// mu. Panics in completion processing fail the run, as in the other
// managers.
func (m *async) drainLocked() bool {
	any := false
	for {
		buf := m.drainBuf[:0]
		for len(buf) < m.batch {
			t, compute, ok := m.comp.pop()
			if !ok {
				break
			}
			buf = append(buf, t)
			m.compute += compute
		}
		m.drainBuf = buf[:0]
		if len(buf) == 0 {
			return any
		}
		any = true
		m.tasks += int64(len(buf))
		if err := applyBatch(m.sm, buf); err != nil {
			m.failLocked(err)
		}
		if m.failed.Load() {
			return any
		}
	}
}

// refillLocked tops the ready buffer up from the state machine. Caller
// holds mu, which makes it the deque's owner; the ring never grows
// because only the owner pushes and concurrent steals can only make the
// free-slot count computed first an underestimate.
func (m *async) refillLocked() bool {
	free := m.readyCap - int(m.ready.size())
	if free <= 0 {
		return false
	}
	ts, _ := m.sm.NextTasks(m.refillBuf[:0], free)
	m.refillBuf = ts[:0]
	for _, t := range ts {
		m.ready.pushBottom(t)
	}
	if m.met != nil && len(ts) > 0 {
		// Occupancy right after the top-up; workers pop concurrently, so
		// the gauge is a sample, not an invariant.
		m.met.ReadyOccupancy.Set(m.ready.size())
	}
	return len(ts) > 0
}

// finishLocked marks the run over: no later cycle touches the state
// machine or the ready buffer. Caller holds mu. The doorbell ring covers
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

// tryInlineCycle runs one management cycle on the calling worker
// goroutine if the state machine is free — the shared body of every
// worker-side fallback. It never blocks behind a live management
// goroutine, and fires the pool notify outside the lock exactly as the
// management goroutine's own cycle does. at is the worker's latest clock
// reading; the stamp returned is at when no cycle ran and a fresh reading
// after one did, so the cycle's time stays out of the worker's next
// compute interval.
func (m *async) tryInlineCycle(at clock.Stamp) clock.Stamp {
	if !m.mu.TryLock() {
		return at
	}
	m.inlineCycles.Add(1)
	_, progressed := m.cycleLocked(at)
	m.mu.Unlock()
	if progressed && m.notify != nil {
		m.notify()
	}
	return clock.Now()
}

// take removes the oldest buffered task. A task taken after Abort is
// dropped — the run's results are void.
func (m *async) take() (core.Task, bool) {
	t, ok := m.ready.steal()
	if !ok || m.failed.Load() {
		return core.Task{}, false
	}
	return t, true
}

// Enter hands done to the management goroutine and asks for a task.
//
// The stocked hand-off is the fast path: worker w reports done unstamped
// (at zero) from an open compute stretch and asks for more, and the ready
// buffer has a task. One steal, one MPSC push of done with zero compute,
// one doorbell: nothing is read, the stamp returned is zero and the
// stretch runs on, as across the sharded manager's deque pops. What leaves
// the fast path — a dry buffer, AskNone, a failed run, a stamped caller, a
// full completion ring — closes the stretch with one reading (complete),
// and the completion that closes it carries the stretch's whole length.
//
// The slow path then steals; failing that it rings the doorbell (so the
// management goroutine re-evaluates after the last completion), enters the
// executive if it is idle — one inline management cycle, never waiting
// behind a live management goroutine — and steals once more. A task it
// hands out opens a stretch at a reading taken once the task is in hand,
// so the worker's hand-off and any inline cycle stay out of Compute: as
// before they belong to no share (management time is the state-machine
// time of management cycles).
//
// ok=false means "nothing buffered and the executive is busy or has
// nothing to hand out": the doorbell has been rung, and the pool's
// progress callback (SetNotify) fires when a management cycle produces
// work, waking pool-parked workers. applied is always false: the
// completion was only handed over, and the callback reports its
// application (an inline cycle fires it too).
func (m *async) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	if at == 0 && done.ID != 0 && ask == AskTry && m.open[w].at != 0 {
		if t, ok := m.ready.steal(); ok {
			return m.handOff(w, done, t)
		}
	}
	if done.ID != 0 {
		at = m.complete(w, done, at.OrNow())
	}
	if ask == AskNone || m.failed.Load() {
		return core.Task{}, at, false, false
	}
	t, ok := m.take()
	if !ok {
		m.ring()
		at = m.tryInlineCycle(at)
		if t, ok = m.take(); !ok {
			return core.Task{}, at, false, false
		}
	}
	return t, m.dispatch(w), true, false
}

// handOff ends a stocked hand-off once the fast path has stolen t: done
// joins the completion queue with zero compute and the stretch runs on.
// A failed run voids t and drops done, and a full queue sends done the
// slow way; either closes the stretch here. (A run that finished without
// failing has nothing buffered, so no steal gets here.)
func (m *async) handOff(w int, done, t core.Task) (core.Task, clock.Stamp, bool, bool) {
	if !m.failed.Load() && m.comp.push(done, 0) {
		m.ring()
		return t, 0, true, false
	}
	at := m.complete(w, done, clock.Now())
	if m.failed.Load() {
		return core.Task{}, at, false, false
	}
	return t, m.dispatch(w), true, false
}

// dispatch opens worker w's compute stretch at a reading taken with its
// next task in hand, and returns that reading.
func (m *async) dispatch(w int) clock.Stamp {
	now := clock.Now()
	m.open[w].at = now
	return now
}

// complete closes worker w's compute stretch at the reading at, pushes the
// completion and the stretch's length into the MPSC queue and rings the
// management doorbell. A completion arriving after the run failed is
// dropped, matching the other managers' post-failure contract.
func (m *async) complete(w int, t core.Task, at clock.Stamp) clock.Stamp {
	var compute time.Duration
	if opened := m.open[w].at; opened != 0 {
		compute = at.Sub(opened)
		m.open[w].at = 0
	}
	if m.failed.Load() || m.finished.Load() {
		return at
	}
	for !m.comp.push(t, compute) {
		// Queue full: the management goroutine is far behind. Help drain
		// inline, or yield to whoever currently owns the state machine.
		if m.failed.Load() || m.finished.Load() {
			return at
		}
		at = m.tryInlineCycle(clock.Now())
		runtime.Gosched()
	}
	m.ring()
	return at
}

// Flush has nothing to flush — completions are already queued to the
// management goroutine; it just rings the doorbell so they are applied
// promptly once the worker moves to another job.
func (m *async) Flush(w int, at clock.Stamp) (clock.Stamp, bool) {
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
