package executive

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/granule"
)

// TestAsyncDefaults: DequeCap sizes every ready lane under both lane
// manager kinds — 16 tasks per worker by default — and the low-water mark
// is a quarter of all lanes together, kept below their total.
func TestAsyncDefaults(t *testing.T) {
	for _, kind := range []ManagerKind{ShardedManager, AsyncManager} {
		for _, c := range []struct{ workers, dequeCap, laneCap, lowWater int }{
			{8, 0, 16, 32},
			{1, 0, 16, 4},
			{4, 4, 4, 4},
			{1, 1, 1, 0},
		} {
			m := newLaneManager(&stubSM{}, Config{Workers: c.workers, Manager: kind, DequeCap: c.dequeCap})
			if m.laneCap != c.laneCap || m.lowWater != c.lowWater {
				t.Errorf("%v, %d workers, DequeCap %d: laneCap=%d lowWater=%d, want %d and %d",
					kind, c.workers, c.dequeCap, m.laneCap, m.lowWater, c.laneCap, c.lowWater)
			}
			if n := m.lanes[0].ready.mask + 1; n != int64(pow2(c.laneCap)) {
				t.Errorf("%v, DequeCap %d: ring of %d slots, want %d", kind, c.dequeCap, n, pow2(c.laneCap))
			}
		}
	}
}

// countingSM is a StateMachine that hands out n one-granule tasks, IDs 1..n,
// all ready from the start, and counts the completions applied to each, so
// a test can check that every task's completion was applied exactly once.
// Every method runs under the manager's serialization; applied is read
// after the run is over. NextTasks appends into the buffer it is given and
// allocates nothing once applied exists.
type countingSM struct {
	n, issued, completed int
	applied              []int
}

func newCountingSM(n int) *countingSM { return &countingSM{n: n, applied: make([]int, n+1)} }

func (s *countingSM) Start() core.Cost { return 0 }
func (s *countingSM) NextTask() (core.Task, core.Cost, bool) {
	if s.issued == s.n {
		return core.Task{}, 0, false
	}
	s.issued++
	return mkTask(s.issued), 0, true
}
func (s *countingSM) NextTasks(dst []core.Task, max int) ([]core.Task, core.Cost) {
	for ; max > 0; max-- {
		t, _, ok := s.NextTask()
		if !ok {
			break
		}
		dst = append(dst, t)
	}
	return dst, 0
}
func (s *countingSM) Complete(t core.Task) core.Cost {
	s.applied[t.ID]++
	s.completed++
	return 0
}
func (s *countingSM) CompleteBatch(ts []core.Task) core.Cost {
	for _, t := range ts {
		s.Complete(t)
	}
	return 0
}
func (s *countingSM) DeferredMgmt() (core.Cost, bool) { return 0, false }
func (s *countingSM) HasDeferred() bool               { return false }
func (s *countingSM) Done() bool                      { return s.completed == s.n }
func (s *countingSM) InFlight() int                   { return s.issued - s.completed }

// checkAppliedOnce fails unless every task's completion was applied
// exactly once.
func (s *countingSM) checkAppliedOnce(t *testing.T) {
	t.Helper()
	for id := 1; id <= s.n; id++ {
		if s.applied[id] != 1 {
			t.Errorf("task %d: completion applied %d times, want once", id, s.applied[id])
		}
	}
}

// TestAsyncStretchSpansHandOffs: a worker that reports its tasks unstamped
// over a stocked ready lane takes no reading — every hand-off returns the
// zero stamp and the stretch opened by the first dispatch runs on — and the
// stretch is booked once, when a stamped entry closes it: the compute total
// is the closing reading minus the first dispatch stamp, and every task is
// counted. It holds under both placements (the batch is the whole run, so
// no inline drain reads the clock in between).
func TestAsyncStretchSpansHandOffs(t *testing.T) {
	const n = 64
	for _, p := range placements {
		t.Run(p.name, func(t *testing.T) {
			sm := newCountingSM(n)
			mgr := placed(sm, Config{Workers: 1, Manager: AsyncManager, DequeCap: n, Batch: n}, p.dedicated)
			mgr.Start() // the first refill buffers all n tasks
			task, first, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskTry)
			if !ok || first == 0 {
				t.Fatalf("first ask: ok=%v stamp=%d, want a task and its dispatch stamp", ok, first)
			}
			for i := 1; i < n; i++ {
				next, now, ok, _ := mgr.Enter(0, task, 0, AskTry)
				if !ok {
					t.Fatalf("hand-off %d found no task in a lane stocked with %d", i, n)
				}
				if now != 0 {
					t.Fatalf("hand-off %d returned stamp %d, want 0: the stretch must run on unread", i, now)
				}
				task = next
			}
			end := clock.Now()
			mgr.Enter(0, task, end, AskNone)
			mgr.Flush(0, 0)
			waitDone(t, mgr)
			compute, _, tasks := mgr.Totals()
			if want := end.Sub(first); compute != want {
				t.Errorf("compute = %v, want the one stretch from the first dispatch to the closing reading, %v", compute, want)
			}
			if tasks != n {
				t.Errorf("tasks = %d, want %d", tasks, n)
			}
			sm.checkAppliedOnce(t)
		})
	}
}

// waitDone waits, up to ten seconds, for the last completion to be
// applied, then joins the management goroutine.
func waitDone(t *testing.T, mgr Manager) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		done, err := mgr.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the run did not finish: %d tasks still in flight", mgr.InFlight())
		}
	}
	mgr.Join()
}

// startByHand activates m's program and stocks every ready lane without
// spawning a management goroutine, so only the cycles the test's worker
// runs inline, or runs itself, drain a lane.
func startByHand(m *laneManager) {
	m.mu.Lock()
	m.sm.Start()
	m.refillLocked(-1)
	m.mu.Unlock()
}

// TestAsyncFastPathFullRing: a stocked hand-off whose completion meets
// its worker's full completion lane falls back to the slow way — the
// stretch closes, the worker publishes its lane and drains it inline (no
// management goroutine runs here) and queues again — and still hands out
// the task it stole, at a fresh stamp. Every completion, the one that met
// the full lane included, is applied exactly once.
func TestAsyncFastPathFullRing(t *testing.T) {
	const n = 256
	sm := newCountingSM(n)
	m := placed(sm, Config{Workers: 1, Manager: AsyncManager, DequeCap: 8, Batch: 4}, false)
	startByHand(m)

	task, _, ok, _ := m.Enter(0, core.Task{}, clock.Now(), AskTry)
	if !ok {
		t.Fatal("no first task")
	}
	// Fill worker 0's completion lane, unpublished, with completions of
	// tasks dispatched past the ready lane.
	q := &m.lanes[0].comp
	m.mu.Lock()
	for range q.slots {
		f, _, ok := m.sm.NextTask()
		if !ok || !q.push(f, 0) {
			t.Fatal("could not fill the completion lane")
		}
	}
	m.mu.Unlock()

	task, now, ok, _ := m.Enter(0, task, 0, AskTry)
	if !ok || now == 0 {
		t.Fatalf("hand-off into a full lane: ok=%v stamp=%d, want the stolen task at a fresh stamp", ok, now)
	}
	if q.head.Load() == 0 {
		t.Error("the full lane was not drained inline")
	}
	// Run the rest by hand. With all tasks ready and no one else holding
	// the executive, a dry ask after its inline cycle means a lost
	// completion.
	for {
		next, _, ok, _ := m.Enter(0, task, 0, AskTry)
		if task = next; ok {
			continue
		}
		if done, err := m.Outcome(); err != nil || !done {
			t.Fatalf("dry ask on an unfinished run: Outcome = (%v, %v), %d in flight", done, err, m.InFlight())
		}
		break
	}
	if _, _, tasks := m.Totals(); tasks != n {
		t.Errorf("tasks = %d, want %d", tasks, n)
	}
	sm.checkAppliedOnce(t)
}

// TestAsyncPublishesBeforeDry: under the dedicated placement every
// completion a worker queued is visible to the drain by the time Enter
// reports the worker dry, an AskNone entry returns, or Flush returns — the
// moments after which the worker may park or leave the job. A completion
// still unpublished then is one the pool's all-parked stall probe counts
// in flight but no management cycle will ever apply. No management
// goroutine runs here, and the stretches of hand-offs stay shorter than a
// publication batch, so only the exits publish. (Inline, a dry ask applies
// them itself: TestInlineCycleTouchesOwnLanesOnly.)
func TestAsyncPublishesBeforeDry(t *testing.T) {
	const batch = 64
	// visible drains w's lane as a management cycle would and reports how
	// many completions it found; unpublished ones stay where they are.
	visible := func(m *laneManager, w int) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		buf, _ := m.lanes[w].comp.drain(nil)
		return len(buf)
	}
	start := func(t *testing.T, n int) *laneManager {
		m := placed(newCountingSM(n), Config{Workers: 2, Manager: AsyncManager, DequeCap: n, Batch: batch}, true)
		startByHand(m)
		return m
	}
	// run opens a stretch on worker 0 and hands off k tasks unstamped,
	// returning the task in hand: k completions queued, none published.
	run := func(t *testing.T, m *laneManager, k int) core.Task {
		t.Helper()
		task, _, ok, _ := m.Enter(0, core.Task{}, clock.Now(), AskTry)
		if !ok {
			t.Fatal("no first task")
		}
		for i := 0; i < k; i++ {
			if task, _, ok, _ = m.Enter(0, task, 0, AskTry); !ok {
				t.Fatalf("hand-off %d found no task", i)
			}
		}
		if got := visible(m, 0); got != 0 {
			t.Fatalf("%d completions visible inside an open stretch of %d hand-offs, want none before a publication", got, k)
		}
		return task
	}
	t.Run("dry", func(t *testing.T) {
		const n = 8
		m := start(t, n)
		task := run(t, m, n-1) // worker 0 takes every task there is
		m.mu.Lock()            // the executive is busy: a worker never waits for it
		_, _, ok, _ := m.Enter(0, task, 0, AskTry)
		m.mu.Unlock()
		if ok {
			t.Fatal("a task came back from empty lanes")
		}
		if got := visible(m, 0); got != n {
			t.Errorf("Enter reported dry with %d of %d completions visible", got, n)
		}
	})
	t.Run("ask-none", func(t *testing.T) {
		m := start(t, 16)
		task := run(t, m, 5)
		m.Enter(0, task, 0, AskNone)
		if got := visible(m, 0); got != 6 {
			t.Errorf("AskNone returned with %d of 6 completions visible", got)
		}
	})
	t.Run("flush", func(t *testing.T) {
		m := start(t, 16)
		run(t, m, 5) // the worker keeps the task in hand and leaves the job
		m.Flush(0, 0)
		if got := visible(m, 0); got != 5 {
			t.Errorf("Flush returned with %d of 5 completions visible", got)
		}
	})
}

// TestAsyncFirstCycleZeroAlloc: a fresh manager's first management cycle —
// a drain of published completions and a refill, of every lane on the
// management goroutine and of the worker's own inline — allocates
// nothing: both scratch buffers are sized at construction.
func TestAsyncFirstCycleZeroAlloc(t *testing.T) {
	const runs, readyCap, batch = 100, 16, 4
	for _, c := range []struct {
		w        int   // the cycle's lanes: all, or worker 0's
		buffered int64 // ready tasks after it
	}{{-1, readyCap}, {0, readyCap / 2}} {
		ms := make([]*laneManager, runs+1) // AllocsPerRun calls once more to warm up
		for i := range ms {
			sm := newCountingSM(4 * readyCap)
			m := newLaneManager(sm, Config{Workers: 2, Manager: AsyncManager, DequeCap: readyCap / 2, Batch: batch})
			for w := range m.lanes {
				for range 2 * batch {
					f, _, _ := sm.NextTask()
					m.lanes[w].comp.push(f, 0)
				}
				m.lanes[w].comp.publish()
			}
			ms[i] = m
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			m := ms[next]
			next++
			m.mu.Lock()
			_, drained, _ := m.cycleLocked(clock.Now(), c.w, true)
			m.mu.Unlock()
			if !drained || m.buffered() != c.buffered {
				t.Fatalf("first cycle for lanes %d: drained=%v, %d buffered; want a drain and %d buffered",
					c.w, drained, m.buffered(), c.buffered)
			}
		})
		if allocs != 0 {
			t.Fatalf("first cycle for lanes %d on a fresh manager allocated %.1f times per run, want 0", c.w, allocs)
		}
	}
}

// TestAsyncNewAllocs: building an async manager costs no more allocations
// than it did with one shared ready deque and one shared completion ring
// (parentNewAllocs), at 2 workers and at 8: the lanes are carved from one
// slab per kind, so their count does not grow with the workers.
func TestAsyncNewAllocs(t *testing.T) {
	// newAsync with one shared ready deque and one shared completion ring,
	// measured at 2 and at 8 workers alike.
	const parentNewAllocs = 12
	for _, workers := range []int{2, 8} {
		cfg := Config{Workers: workers, Manager: AsyncManager}
		if allocs := testing.AllocsPerRun(100, func() { laneSink = newLaneManager(&stubSM{}, cfg) }); allocs > parentNewAllocs {
			t.Errorf("newLaneManager at %d workers allocated %.0f times, want at most %d", workers, allocs, parentNewAllocs)
		}
	}
}

// laneSink keeps TestAsyncNewAllocs's managers on the heap, where a run
// puts them.
var laneSink *laneManager

// TestAsyncInlineFallback: the async kind's placement follows the host.
// With a core to spare beyond the workers it is dedicated; with none
// (GOMAXPROCS ≤ Workers) — and the sharded kind always — it is inline: no
// management goroutine is started, and a worker driven by hand on one core
// that never yields finishes the program through the cycles it runs
// itself when its lane runs dry.
func TestAsyncInlineFallback(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if m := newLaneManager(&stubSM{}, Config{Workers: 1, Manager: AsyncManager}); !m.dedicated {
		t.Error("async with a spare core: inline placement, want dedicated")
	}
	if m := newLaneManager(&stubSM{}, Config{Workers: 1, Manager: ShardedManager}); m.dedicated {
		t.Error("sharded with a spare core: dedicated placement, want inline")
	}
	if m := newLaneManager(&stubSM{}, Config{Workers: 2, Manager: AsyncManager}); m.dedicated {
		t.Error("async with as many workers as cores: dedicated placement, want inline")
	}

	runtime.GOMAXPROCS(1)
	prog, a, b, c := buildCopyChain(t, 1024)
	sched, err := core.New(prog, core.Options{
		Workers: 1, Grain: 4, Overlap: true, Costs: core.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newLaneManager(sched, Config{Workers: 1, Manager: AsyncManager, DequeCap: 4, Batch: 1})
	if m.dedicated {
		t.Fatal("async with no spare core: dedicated placement, want inline")
	}
	m.Start()
	if m.started.Load() {
		t.Error("a management goroutine was started with no core to run on")
	}
	var task core.Task
	for {
		next, _, ok, _ := m.Enter(0, task, clock.Now(), AskTry)
		if task = next; !ok {
			break
		}
		work := prog.Phases[task.Phase].Work
		task.Run.Each(func(g granule.ID) { work(g) })
	}
	m.Join()
	if done, err := m.Outcome(); err != nil || !done {
		t.Fatalf("dry ask on one inline worker: Outcome = (%v, %v), want the finished run", done, err)
	}
	checkCopyChain(t, a, b, c)
}

// TestAsyncAbortReleasesWorkers: Abort must end the run for a worker still
// asking — no task comes back once the flag is up, however many are
// buffered — stop the management goroutine, and surface through Outcome,
// under both placements.
func TestAsyncAbortReleasesWorkers(t *testing.T) {
	for _, p := range placements {
		prog, _, _, _ := buildCopyChain(t, 64)
		sched, err := core.New(prog, core.Options{
			Workers: 2, Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
		})
		if err != nil {
			t.Fatal(err)
		}
		m := placed(sched, Config{Workers: 2, Manager: AsyncManager}, p.dedicated)
		m.Start()
		if _, _, ok, _ := m.Enter(0, core.Task{}, clock.Now(), AskTry); !ok {
			t.Fatalf("%s: no first task", p.name)
		}
		m.Abort(errAbortTest)
		if _, _, ok, _ := m.Enter(1, core.Task{}, clock.Now(), AskTry); ok {
			t.Fatalf("%s: a task was handed out after the abort", p.name)
		}
		m.Join()
		if _, err := m.Outcome(); err != errAbortTest {
			t.Fatalf("%s: Outcome error = %v, want the abort error", p.name, err)
		}
	}
}

// TestInlineCycleTouchesOwnLanesOnly: an inline cycle runs on the dry
// worker's time and refills that worker's ready lane alone — every other
// worker's ready lane is exactly as it was — while it applies every
// completion published so far, whichever worker queued it. The management
// goroutine's cycle refills every lane.
func TestInlineCycleTouchesOwnLanesOnly(t *testing.T) {
	const workers, laneCap = 4, 4
	m := placed(newCountingSM(1024), Config{Workers: workers, DequeCap: laneCap, Batch: 64}, false)
	startByHand(m)
	// Every worker takes a task; worker 0 then runs its lane dry, and every
	// worker has two completions published.
	var held [workers]core.Task
	for w := range held {
		held[w], _, _, _ = m.Enter(w, core.Task{}, clock.Now(), AskTry)
	}
	for range laneCap - 1 {
		held[0], _, _, _ = m.Enter(0, held[0], 0, AskTry)
	}
	m.mu.Lock()
	for w := range m.lanes {
		for range 2 {
			f, _, _ := m.sm.NextTask()
			m.lanes[w].comp.push(f, 0)
		}
		m.lanes[w].comp.publish()
	}
	m.mu.Unlock()
	type ready struct{ top, bottom int64 }
	read := func(w int) ready { return ready{m.lanes[w].ready.top.Load(), m.lanes[w].ready.bottom.Load()} }
	var before [workers]ready
	for w := range before {
		before[w] = read(w)
	}
	if _, _, ok, applied := m.Enter(0, held[0], 0, AskTry); !ok || !applied {
		t.Fatalf("dry ask on worker 0: ok=%v applied=%v, want a refill and the published completions applied", ok, applied)
	}
	if got := read(0); got.bottom == before[0].bottom {
		t.Errorf("worker 0's ready lane was not refilled: %+v, then %+v", before[0], got)
	}
	if q := &m.lanes[0].comp; q.head.Load() != q.local {
		t.Errorf("worker 0's dry ask left %d of its own completions unapplied", q.local-q.head.Load())
	}
	for w := 1; w < workers; w++ {
		if got := read(w); got != before[w] {
			t.Errorf("worker 0's inline cycle moved worker %d's ready lane: %+v, then %+v", w, before[w], got)
		}
		if q := &m.lanes[w].comp; q.head.Load() != q.tail.Load() {
			t.Errorf("worker %d's published completions were left undrained", w)
		}
	}

	m.mu.Lock()
	m.cycleLocked(clock.Now(), -1, true)
	m.mu.Unlock()
	for w := 1; w < workers; w++ {
		if got := read(w); got.bottom == before[w].bottom {
			t.Errorf("the management goroutine's cycle left worker %d's ready lane alone: %+v, then %+v", w, before[w], got)
		}
	}
}

// placements are the lane manager's two placements, for tests that run
// under both whatever the host's core count.
var placements = []struct {
	name      string
	dedicated bool
}{{"inline", false}, {"dedicated", true}}

// placed builds a lane manager with its placement forced.
func placed(sm StateMachine, cfg Config, dedicated bool) *laneManager {
	m := newLaneManager(sm, cfg)
	m.dedicated = dedicated
	return m
}

var errAbortTest = &abortErr{}

type abortErr struct{}

func (*abortErr) Error() string { return "test abort" }
