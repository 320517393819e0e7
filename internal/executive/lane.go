package executive

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// laneManager is the parallel Manager behind ShardedManager and
// AsyncManager: one code path that differs only in where the management
// cycle runs — its placement (DESIGN.md §3.3).
//
//   - Lanes: each worker has a ready lane, a fixed ring of laneCap tasks
//     with one producer and many consumers (deque.go), and a completion
//     lane, a bounded single-producer single-consumer ring (compLane).
//     Whoever holds mu is every ready lane's producer and tops one up with
//     one NextTasks and one pushBottomN, in the state machine's priority
//     order. A worker takes the oldest task of its own lane with one
//     steal — the fast path — and steals one task from another lane only
//     when its own lane is empty and a cycle found nothing for it.
//   - Completions: a worker writes its completions into its own lane with
//     plain stores and publishes them with one store every Batch
//     completions and before it can park or leave the job. Every cycle
//     drains every lane's published run and applies each in one
//     CompleteBatch, so no worker takes mu to hand its completions over.
//   - The cycle drains completions, refills ready lanes, absorbs deferred
//     management and detects the end of the run, under mu.
//
// The placement (dedicated) is read from the manager kind and the host:
//
//   - Inline (ShardedManager, and AsyncManager with no spare core,
//     GOMAXPROCS ≤ Workers): a worker whose ready lane is empty runs the
//     cycle itself, waiting for mu like a PAX processor entering the
//     executive, and refills its own lane only: no other worker's ready
//     lane moves on its time.
//   - Dedicated (AsyncManager with a spare core): one management goroutine
//     — the paper's separate executive processor, the sim's Dedicated
//     model — runs the cycle and refills every lane, woken by a doorbell
//     that workers ring when they publish, and overlaps deferred
//     management with computation while the lanes hold more than a quarter
//     of their capacity (the low-water mark). A worker whose lane is empty
//     runs the inline cycle only if the executive is idle, never waiting
//     behind the goroutine; else it rings and is told dry, and the pool's
//     progress callback (SetNotify) wakes it after the goroutine's cycle.
//
// Compute stretches: the fast path — a steal from the worker's own lane
// and a plain write into its completion lane — reads no clock, so the
// stretch its first task opened runs on across its tasks. Whatever leaves
// the fast path (an empty lane, AskNone, a failed run) closes the stretch
// with one reading, and the completion that closes it carries the
// stretch's whole length; a stamped caller closes and reopens it at its
// own reading. The cycle that applies a completion adds its count and
// compute to the totals under mu. Cross-lane steals are management done
// outside mu and are charged to stealNS.
//
// Invariants the pool's stall probe relies on: every task popped from the
// state machine is in a ready lane, held by a worker, or queued or applied
// as a completion, so InFlight covers everything outside the state
// machine. A dry ask returns only after the worker published its
// completion lane and found every ready lane empty — inline, after a cycle
// that applied every published completion — and Flush publishes too
// (inline, and applies). So when every pool worker is parked, every
// completion is applied or visible to the management goroutine, whose
// doorbell has rung.
type laneManager struct {
	// runState's mu serializes the state machine; its holder owns every
	// ready lane and is the one consumer of every completion lane.
	runState

	met *telemetry.Set // steal counters, lane gauges (nil = metrics off)

	dedicated bool // a management goroutine runs the cycle (see the type)
	laneCap   int  // one ready lane's capacity
	lowWater  int  // total occupancy above which deferred management overlaps
	batch     int  // completions a worker queues before it publishes them

	lanes []lane

	// The rest is written as the run goes, so it starts on a cache line
	// of its own: the fields above are read on every task.
	_ [64]byte

	// stealTick rotates a cross-lane steal's first victim, so starving
	// workers spread their probes instead of all trying the same lane.
	stealTick atomic.Uint64
	// stealNS is the time spent in cross-lane steals, outside mu: it is
	// management work and joins Totals' mgmt.
	stealNS atomic.Int64

	wake     chan struct{} // management doorbell, capacity 1
	finished atomic.Bool   // set under mu once the run is over
	started  atomic.Bool   // Start spawned the management goroutine
	loopDone chan struct{} // closed when the management goroutine exits
	notify   func()        // pool progress callback; nil outside a pool

	// Scratch guarded by mu: the buffers handed to NextTasks and
	// CompleteBatch, sized so that neither ever grows, so cycles allocate
	// nothing.
	refillBuf []core.Task
	drainBuf  []core.Task
}

// lane is one worker's pair of hand-off structures and its open compute
// stretch (the dispatch stamp of the task it runs, 0 = none, the worker's
// own). The groups are padded apart: the ready lane's words are written
// by its takers and the refilling producer, the completion lane's producer
// words by the worker on every task.
type lane struct {
	ready deque
	_     [64 - 48]byte
	comp  compLane
	open  clock.Stamp
	_     [64 - 8]byte
}

func newLaneManager(sm StateMachine, cfg Config) *laneManager {
	laneCap := cfg.DequeCap
	if laneCap <= 0 {
		laneCap = lookAhead
	}
	_, low := core.ReadyBounds(laneCap*cfg.Workers, 0)
	batch := cfg.Batch
	if batch <= 0 {
		batch = 8
	}
	// Between two drains a worker completes what its own lane held, a
	// steal and the task in hand; the lane takes two ready lanes' worth
	// and a batch. Overflow is not lost either way: a full push publishes
	// and waits for a drain.
	compCap := pow2(2*laneCap + batch)
	return &laneManager{
		runState:  runState{sm: sm},
		met:       cfg.Metrics,
		dedicated: cfg.Manager == AsyncManager && runtime.GOMAXPROCS(0) > cfg.Workers,
		laneCap:   laneCap,
		lowWater:  low,
		batch:     batch,
		lanes:     newLanes(cfg.Workers, laneCap, compCap),
		wake:      make(chan struct{}, 1),
		loopDone:  make(chan struct{}),
		refillBuf: make([]core.Task, 0, laneCap),
		drainBuf:  make([]core.Task, 0, compCap),
	}
}

// Start activates the program and stocks every ready lane, so workers find
// work at once; under the dedicated placement it then spawns the
// management goroutine.
func (m *laneManager) Start() {
	m.mu.Lock()
	t0 := clock.Now()
	m.sm.Start()
	m.refillLocked(-1)
	m.charge(t0)
	m.mu.Unlock()
	if m.dedicated {
		m.started.Store(true)
		go m.loop()
	}
}

// loop is the management goroutine: a cycle for every lane, then the
// doorbell, until the run is over. The pool progress callback fires
// outside mu: the pool holds its own lock while it probes this manager.
func (m *laneManager) loop() {
	defer close(m.loopDone)
	for !m.finished.Load() {
		m.mu.Lock()
		_, _, progressed := m.cycleLocked(clock.Now(), -1, true)
		m.mu.Unlock()
		if progressed && m.notify != nil {
			m.notify()
		}
		if !m.finished.Load() {
			<-m.wake
		}
	}
}

// cycleLocked is the management cycle: drain every lane's published
// completions; refill, when refill is set, worker w's ready lane — inline,
// on w's goroutine — or every lane when w < 0, on the management
// goroutine; absorb deferred management; detect the end. Caller holds mu;
// t0 is the stamp management time is charged from, and the stamp returned
// is the cycle's last reading, one per pass. drained reports completions
// applied, progressed that completions were applied, tasks buffered or the
// run finished — what a pool parked elsewhere must hear about.
//
// Deferred management runs when a refill came up empty — it may be the
// only source of new releases — and, on the management goroutine, while
// the lanes hold more than lowWater tasks: the paper's overlap of deferred
// management with computation, on a processor of its own. A failed run is
// never charged: its Mgmt must not move under a report built from it.
func (m *laneManager) cycleLocked(t0 clock.Stamp, w int, refill bool) (_ clock.Stamp, drained, progressed bool) {
	for {
		if m.err != nil {
			return t0, drained, m.finishLocked() || progressed
		}
		if m.finished.Load() {
			return t0, drained, progressed
		}
		d := m.drainLocked()
		r := refill && m.err == nil && m.refillLocked(w)
		done := m.err == nil && m.sm.Done()
		t0 = m.charge(t0)
		drained, progressed = drained || d, progressed || d || r
		if m.err != nil || done {
			return t0, drained, m.finishLocked() || progressed
		}
		if refill && m.sm.HasDeferred() && (!r || w < 0 && m.buffered() > int64(m.lowWater)) {
			_, _ = m.sm.DeferredMgmt() // the next pass's reading charges it
			continue
		}
		// The management goroutine goes around again while it makes
		// progress: more completions may have been published meanwhile.
		if w >= 0 || !d && !r {
			return t0, drained, progressed
		}
	}
}

// drainLocked applies every completion lane's published run in one
// CompleteBatch per lane, totalling their count and the compute time that
// came with them. Caller holds mu and has checked that the run has not
// failed; a panic in completion processing fails it.
func (m *laneManager) drainLocked() bool {
	any := false
	for i := range m.lanes {
		buf, compute := m.lanes[i].comp.drain(m.drainBuf[:0])
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

// refillLocked tops worker w's ready lane up from the state machine, or
// every lane in turn when w < 0, until the state machine runs dry. Caller
// holds mu, which makes it every lane's one producer: a refill asks for no
// more than the free slots it read, and concurrent steals only add to
// them, so it never overwrites a live slot.
func (m *laneManager) refillLocked(w int) bool {
	lo, hi := 0, len(m.lanes)
	if w >= 0 {
		lo, hi = w, w+1
	}
	refilled := false
	for i := lo; i < hi; i++ {
		l := &m.lanes[i]
		free := m.laneCap - int(l.ready.size())
		if free <= 0 {
			continue
		}
		ts, _ := m.sm.NextTasks(m.refillBuf[:0], free)
		l.ready.pushBottomN(ts)
		refilled = refilled || len(ts) > 0
		if len(ts) < free {
			break // nothing more is ready
		}
	}
	if m.met != nil && refilled {
		// A sample: workers steal concurrently.
		m.met.ReadyOccupancy.Set(m.buffered())
	}
	return refilled
}

// buffered reports the ready lanes' total occupancy: exact for the holder
// of mu as far as pushes go, a moment-in-time estimate as far as steals do.
func (m *laneManager) buffered() int64 {
	var n int64
	for i := range m.lanes {
		n += m.lanes[i].ready.size()
	}
	return n
}

// finishLocked marks the run over — no later cycle touches the state
// machine — and rings the doorbell so a parked management goroutine exits.
// It reports whether this call finished the run. Caller holds mu.
func (m *laneManager) finishLocked() bool {
	if m.finished.Swap(true) {
		return false
	}
	m.ring()
	return true
}

// ring rings the management doorbell (level-triggered: a ring while one
// is pending is dropped, and every cycle re-reads all state).
func (m *laneManager) ring() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Enter reports done and asks for worker w's next task.
//
// The fast path: w asks for more from an open stretch, or with a stamp of
// its own, and its ready lane has a task — one steal, and done queued in
// w's completion lane (handOff). Otherwise w closes its stretch, queues
// done and looks for work: its own lane; a cycle that refills it —
// dedicated, only if the executive is idle; then one task stolen from
// another lane. A task it finds opens a stretch at the latest reading.
// ok=false means every lane is empty and the state machine has nothing
// for w right now, the run is over, or it failed. applied reports
// completions this call's cycle applied (the management goroutine's
// progress reaches the pool through the callback).
func (m *laneManager) Enter(w int, done core.Task, at clock.Stamp, ask Ask) (core.Task, clock.Stamp, bool, bool) {
	l := &m.lanes[w]
	if ask == AskTry && (at != 0 || l.open != 0) {
		if t, ok := l.ready.steal(); ok {
			return m.handOff(w, done, t, at)
		}
	}
	at = at.OrNow()
	if done.ID != 0 {
		at = m.complete(w, done, at)
	}
	l.open = 0
	// Dedicated, whatever leaves the fast path publishes; inline, the
	// cycle below publishes first, so AskNone keeps the batch as the fast
	// path does.
	if m.dedicated || l.comp.pending() >= int64(m.batch) {
		m.publish(w)
	}
	if ask == AskNone || m.failed.Load() {
		return core.Task{}, at, false, false
	}
	applied := false
	t, ok := l.ready.steal()
	if !ok {
		l.comp.publish()
		var ran bool
		if at, applied, ran = m.inline(w, at, true, !m.dedicated); ran {
			t, ok = l.ready.steal()
		}
	}
	if !ok {
		t, at, ok = m.steal(w, at)
	}
	if !ok || m.failed.Load() {
		if m.dedicated {
			m.ring() // the goroutine re-reads every lane after the last completion
		}
		return core.Task{}, at, false, applied
	}
	l.open = at
	return t, at, true, applied
}

// handOff ends the fast path once w has stolen t from its own lane: done
// joins w's completion lane — with zero compute when the stretch runs on
// unread, the stretch's length when the caller stamped it — published once
// Batch are pending. The stamp returned is the caller's. A failed run
// voids t and drops done.
func (m *laneManager) handOff(w int, done, t core.Task, at clock.Stamp) (core.Task, clock.Stamp, bool, bool) {
	l := &m.lanes[w]
	if done.ID != 0 {
		at = m.complete(w, done, at)
		if l.comp.pending() >= int64(m.batch) {
			m.publish(w)
		}
	}
	if m.failed.Load() {
		at = at.OrNow()
		l.open = 0
		m.publish(w)
		return core.Task{}, at, false, false
	}
	if at != 0 {
		l.open = at
	}
	return t, at, true, false
}

// complete queues done in worker w's completion lane. A nonzero at closes
// w's stretch there and done carries its length; at zero the stretch runs
// on. A full lane is published and waited on — drained inline, or by the
// management goroutine. A completion arriving after the run failed is
// dropped. It returns the latest stamp.
func (m *laneManager) complete(w int, done core.Task, at clock.Stamp) clock.Stamp {
	l := &m.lanes[w]
	var compute time.Duration
	if at != 0 {
		if l.open != 0 {
			compute = at.Sub(l.open)
		}
		l.open = 0
	}
	for !m.failed.Load() && !l.comp.push(done, compute) {
		at, _ = m.Flush(w, at)
		runtime.Gosched()
	}
	return at
}

// publish makes worker w's queued completions visible to the drain, and
// rings the management goroutine's doorbell when that published anything.
func (m *laneManager) publish(w int) {
	if m.lanes[w].comp.publish() && m.dedicated {
		m.ring()
	}
}

// Flush publishes worker w's completion lane and hands it to the
// placement's manager — the pool calls it when w leaves the job, so its
// completions cannot linger there: the management goroutine is rung;
// inline, w applies them under mu now, charged from at (read here if
// zero), and reports whether it did.
func (m *laneManager) Flush(w int, at clock.Stamp) (clock.Stamp, bool) {
	m.publish(w)
	q := &m.lanes[w].comp
	if m.dedicated || q.head.Load() == q.tail.Load() {
		return at, false
	}
	now, drained, _ := m.inline(w, at.OrNow(), false, true)
	return now, drained
}

// inline runs the management cycle on worker w's goroutine, entering mu
// from w's latest reading at (see runState.enter) — or, unless wait is
// set, only if nobody holds it. ran reports that it entered; drained that
// it applied completions. A failed run is left alone and charged nothing.
func (m *laneManager) inline(w int, at clock.Stamp, refill, wait bool) (now clock.Stamp, drained, ran bool) {
	t0 := at
	if wait {
		t0 = m.enter(at)
	} else if !m.mu.TryLock() {
		return at, false, false
	}
	defer m.mu.Unlock()
	if m.err != nil {
		return t0, false, true
	}
	t0, drained, _ = m.cycleLocked(t0, w, refill)
	return t0, drained, true
}

// steal takes one task from another worker's ready lane, sweeping from a
// rotating start, for worker w whose own lane is empty. The sweep's time —
// from w's latest reading at to the one reading it takes at the end — is
// management done outside mu, charged to stealNS.
func (m *laneManager) steal(w int, at clock.Stamp) (core.Task, clock.Stamp, bool) {
	n := len(m.lanes)
	if n < 2 {
		return core.Task{}, at, false
	}
	var t core.Task
	won := false
	start := int(m.stealTick.Add(1) % uint64(n))
	for i := 0; i < n && !won; i++ {
		if v := (start + i) % n; v != w {
			t, won = m.lanes[v].ready.steal()
		}
	}
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

// Abort terminates the run with err — the run contract (runState) refuses
// it once the state machine has completed — and rings the doorbell so the
// management goroutine observes the verdict.
func (m *laneManager) Abort(err error) {
	m.mu.Lock()
	m.abortLocked(err)
	m.mu.Unlock()
	m.ring()
}

// Totals adds the cross-lane steals' management time, spent outside mu,
// to the run contract's totals.
func (m *laneManager) Totals() (compute, mgmt time.Duration, tasks int64) {
	compute, mgmt, tasks = m.runState.Totals()
	return compute, mgmt + time.Duration(m.stealNS.Load()), tasks
}

// SetNotify registers the pool progress callback. Call before Start.
func (m *laneManager) SetNotify(fn func()) { m.notify = fn }

// Join blocks until the management goroutine, if one was started, has
// exited: call it only after the run is over, before reading final
// state-machine statistics.
func (m *laneManager) Join() {
	if m.started.Load() {
		<-m.loopDone
	}
}

// compLane is a bounded single-producer single-consumer ring of
// completions — a core.Task and the compute time its worker measured for
// it. The producer is the lane's worker, the consumer whoever holds the
// manager's mutex (one at a time, ordered by that mutex).
//
// Memory model: the producer writes a slot with plain stores and advances
// its private count (local); the slots it has written become visible only
// when it publishes, storing local into tail — the one store that carries
// every write before it to a consumer that loads tail. The consumer copies
// the published run [head, tail) out and then stores head, which hands the
// slots back: a producer that loads head sees the consumer's reads
// finished before it overwrites them. So between a publication and the
// next the drain sees nothing of what the worker queued; a worker must
// publish before it can leave the job or park (Enter's slow path and Flush
// do).
//
// The producer checks for room against its cached copy of head and loads
// head only when the cached copy says full; a full ring is refused, never
// overwritten, and the caller publishes and waits for a drain.
type compLane struct {
	// The producer's words: read-only after construction, or written by
	// the worker alone.
	slots  []compSlot
	mask   int64
	local  int64 // next slot to write
	pub    int64 // local as of the last publication
	headAt int64 // the producer's cached copy of head
	_      [64 - 56]byte
	tail   atomic.Int64 // published: slots below it are readable
	_      [64 - 8]byte
	head   atomic.Int64 // consumed: slots below it are free
	_      [64 - 8]byte
}

// compSlot is one queued completion: the task in the deque's two words,
// padded to 32 bytes so no slot straddles a cache line.
type compSlot struct {
	head, run int64
	compute   time.Duration
	_         int64
}

// push queues t and its compute time without publishing them. Producer
// only. It reports false when the ring is full.
func (q *compLane) push(t core.Task, compute time.Duration) bool {
	size := q.mask + 1
	if q.local-q.headAt == size {
		if q.headAt = q.head.Load(); q.local-q.headAt == size {
			return false
		}
	}
	head, run := pack(t)
	q.slots[q.local&q.mask] = compSlot{head: head, run: run, compute: compute}
	q.local++
	return true
}

// pending reports the completions queued since the last publication.
// Producer only.
func (q *compLane) pending() int64 { return q.local - q.pub }

// publish makes every queued completion visible to the drain with one
// store, and reports whether there was anything to publish. Producer only.
func (q *compLane) publish() bool {
	if q.local == q.pub {
		return false
	}
	q.pub = q.local
	q.tail.Store(q.local)
	return true
}

// drain appends the published run to dst in queue order, hands its slots
// back with one store of head, and returns dst with the run's summed
// compute time. Consumer only: the caller holds the manager's mutex.
func (q *compLane) drain(dst []core.Task) ([]core.Task, time.Duration) {
	h, t := q.head.Load(), q.tail.Load()
	if h == t {
		return dst, 0
	}
	var compute time.Duration
	for i := h; i < t; i++ {
		s := &q.slots[i&q.mask]
		dst = append(dst, unpack(s.head, s.run))
		compute += s.compute
	}
	q.head.Store(t)
	return dst, compute
}

// newLanes builds n lanes of readyCap ready slots and compCap completion
// slots each, carving the lanes and both kinds of slots from one slab
// apiece, so a manager's lanes cost three allocations whatever the worker
// count. Both capacities are rounded up to a power of two; a ready lane
// never grows.
func newLanes(n, readyCap, compCap int) []lane {
	rsize, csize := pow2(readyCap), pow2(compCap)
	lanes := make([]lane, n)
	rslots := make([]dequeSlot, n*rsize)
	cslots := make([]compSlot, n*csize)
	for i := range lanes {
		r := &lanes[i].ready
		r.slots, r.mask = rslots[i*rsize:(i+1)*rsize:(i+1)*rsize], int64(rsize-1)
		c := &lanes[i].comp
		c.slots, c.mask = cslots[i*csize:(i+1)*csize:(i+1)*csize], int64(csize-1)
	}
	return lanes
}
