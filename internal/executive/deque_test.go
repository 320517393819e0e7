package executive

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/granule"
)

// TestDequeSlotRoundTrip: a slot packs a core.Task into two words, which
// is exact only while every field fits in 31 bits. core guarantees that
// (an ID is an arena index below 2^31, a phase an int32, a granule at most
// 2^31-1); a task at those bounds must come back from the ring unchanged,
// field by field.
func TestDequeSlotRoundTrip(t *testing.T) {
	const maxGranules = 1<<31 - 1
	r := newDequeRing(8)
	for _, want := range []core.Task{
		{ID: 1<<31 - 1, Phase: math.MaxInt32, Run: granule.Range{Lo: maxGranules, Hi: maxGranules}},
		{ID: 1<<31 - 1, Phase: math.MaxInt32, Run: granule.Range{Lo: 0, Hi: maxGranules}},
		{ID: 1, Phase: 0, Run: granule.Range{Lo: maxGranules - 1, Hi: maxGranules}},
		{ID: 5, Phase: 3, Run: granule.Range{Lo: 1 << 16, Hi: 1<<16 + 1}},
	} {
		r.store(3, want)
		if got := r.load(3); got != want {
			t.Errorf("store/load = %+v, want %+v", got, want)
		}
	}
}

// TestDequeSlotStride: a slot is 32 bytes, two to a cache line, though two
// words would fit in 16 — the async ready buffer's pushing and stealing
// ends share fewer lines that way (EXPERIMENTS.md, two-word deque slots).
func TestDequeSlotStride(t *testing.T) {
	if n := unsafe.Sizeof(dequeSlot{}); n != 32 {
		t.Fatalf("dequeSlot is %d bytes, want 32", n)
	}
}

// TestDequeOwnerOrder: with no thieves, the deque is a plain LIFO stack
// for its owner, and size tracks it.
func TestDequeOwnerOrder(t *testing.T) {
	d := newDeque(4)
	if _, ok := d.popBottom(); ok {
		t.Fatal("popBottom on empty deque returned a task")
	}
	for i := 0; i < 10; i++ {
		d.pushBottom(mkTask(i))
	}
	if n := d.size(); n != 10 {
		t.Fatalf("size = %d, want 10", n)
	}
	for i := 9; i >= 0; i-- {
		got, ok := d.popBottom()
		if !ok || got.ID != i {
			t.Fatalf("popBottom = %v,%v, want task %d", got, ok, i)
		}
	}
	if _, ok := d.popBottom(); ok {
		t.Fatal("drained deque still pops")
	}
}

// TestDequeGrow: pushing far past the initial ring capacity must grow the
// ring without losing or reordering anything, and steals must see the
// grown contents.
func TestDequeGrow(t *testing.T) {
	d := newDeque(8)
	const n = 1000
	for i := 0; i < n; i++ {
		d.pushBottom(mkTask(i))
	}
	for i := 0; i < n/2; i++ {
		got, ok := d.steal()
		if !ok || got.ID != i {
			t.Fatalf("steal = %v,%v, want task %d", got, ok, i)
		}
	}
	for i := n - 1; i >= n/2; i-- {
		got, ok := d.popBottom()
		if !ok || got.ID != i {
			t.Fatalf("popBottom = %v,%v, want task %d", got, ok, i)
		}
	}
}

// TestDequePushNGrow: one pushBottomN larger than the ring must grow it
// once to fit and keep the order — the batch in push order, after what was
// already there — for both the owner and a thief.
func TestDequePushNGrow(t *testing.T) {
	d := newDeque(8)
	for i := 0; i < 3; i++ {
		d.pushBottom(mkTask(i))
	}
	var batch []core.Task
	for i := 3; i < 40; i++ {
		batch = append(batch, mkTask(i))
	}
	d.pushBottomN(batch)
	d.pushBottomN(nil)
	if n := d.size(); n != 40 {
		t.Fatalf("size = %d, want 40", n)
	}
	if n := d.ring.Load().size(); n != 64 {
		t.Fatalf("ring holds %d slots after a 40-task push into 8, want 64", n)
	}
	if got, ok := d.steal(); !ok || got.ID != 0 {
		t.Fatalf("steal = %v,%v, want task 0", got, ok)
	}
	for i := 39; i >= 1; i-- {
		got, ok := d.popBottom()
		if !ok || got != mkTask(i) {
			t.Fatalf("popBottom = %v,%v, want task %d", got, ok, i)
		}
	}
	if _, ok := d.popBottom(); ok {
		t.Fatal("drained deque still pops")
	}
}

// TestDequePushNRacesThieves is the -race workout for batched
// publication: the owner pushes batches of varying size — some past the
// ring, so it grows under the thieves — and pops some back, while
// GOMAXPROCS thieves steal throughout. Every task pushed must be popped or
// stolen exactly once.
func TestDequePushNRacesThieves(t *testing.T) {
	thieves := runtime.GOMAXPROCS(0)
	if thieves < 2 {
		thieves = 2
	}
	const n = 20000
	d := newDeque(8)
	taken := make([]atomic.Int32, n)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if task, ok := d.steal(); ok {
					taken[task.ID].Add(1)
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	batch := make([]core.Task, 0, 32)
	for next, size := 0, 1; next < n; size = size%29 + 1 {
		batch = batch[:0]
		for ; len(batch) < size && next < n; next++ {
			batch = append(batch, mkTask(next))
		}
		d.pushBottomN(batch)
		for i := 0; i < size/3; i++ {
			if task, ok := d.popBottom(); ok {
				taken[task.ID].Add(1)
			}
		}
	}
	for {
		task, ok := d.popBottom()
		if !ok {
			break
		}
		taken[task.ID].Add(1)
	}
	close(stop)
	wg.Wait()

	for id := range taken {
		if c := taken[id].Load(); c != 1 {
			t.Fatalf("task %d taken %d times, want exactly once", id, c)
		}
	}
}

// TestDequeStealVsPopLastElement races the owner and GOMAXPROCS thieves
// for a deque holding exactly one task, over many rounds: exactly one
// goroutine may win each round — the core last-element CAS arbitration.
func TestDequeStealVsPopLastElement(t *testing.T) {
	thieves := runtime.GOMAXPROCS(0)
	if thieves < 2 {
		thieves = 2
	}
	const rounds = 2000
	d := newDeque(4)

	var wins atomic.Int64
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	stop := make(chan struct{})
	for th := 0; th < thieves; th++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := d.steal(); ok {
					wins.Add(1)
				}
			}
		}()
	}
	ready.Wait()
	close(start)

	ownerWins := 0
	for r := 0; r < rounds; r++ {
		d.pushBottom(mkTask(r))
		if _, ok := d.popBottom(); ok {
			ownerWins++
		}
		// Whoever won, the deque must now be empty for the owner.
		if _, ok := d.popBottom(); ok {
			t.Fatal("last element won twice in one round")
		}
	}
	close(stop)
	done.Wait()
	total := int(wins.Load()) + ownerWins
	if total != rounds {
		t.Fatalf("%d tasks extracted over %d rounds (owner %d, thieves %d)",
			total, rounds, ownerWins, wins.Load())
	}
}

// TestDequeGrowDuringSteal: the owner pushes enough to force repeated ring
// growth while thieves continuously steal; every task must be extracted
// exactly once. This exercises thieves reading a stale ring pointer across
// a grow.
func TestDequeGrowDuringSteal(t *testing.T) {
	thieves := runtime.GOMAXPROCS(0)
	if thieves < 2 {
		thieves = 2
	}
	const n = 20000
	d := newDeque(8) // tiny initial ring: growth is constant

	var mu sync.Mutex
	seen := make(map[int]int, n)
	record := func(id int) {
		mu.Lock()
		seen[id]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if task, ok := d.steal(); ok {
					record(task.ID)
					continue
				}
				select {
				case <-stop:
					// One last sweep so nothing pushed after our miss
					// is stranded.
					for {
						task, ok := d.steal()
						if !ok {
							return
						}
						record(task.ID)
					}
				default:
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		d.pushBottom(mkTask(i))
		if i%7 == 0 {
			if task, ok := d.popBottom(); ok {
				record(task.ID)
			}
		}
	}
	for {
		task, ok := d.popBottom()
		if !ok {
			break
		}
		record(task.ID)
	}
	close(stop)
	wg.Wait()

	if len(seen) != n {
		t.Fatalf("extracted %d distinct tasks, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("task %d extracted %d times", id, c)
		}
	}
}

// TestDequeTopMonotonic: the ABA guard on the steal index is top's
// monotonicity — concurrent thieves CASing the same top value must never
// extract the same task twice even as the owner push/pops around them.
// GOMAXPROCS thieves hammer one owner through continuous load/unload
// cycles that wrap the ring many times (index reuse at the same slot is
// exactly the ABA shape).
func TestDequeTopMonotonic(t *testing.T) {
	thieves := runtime.GOMAXPROCS(0)
	if thieves < 4 {
		thieves = 4
	}
	const cycles = 3000
	const burst = 8 // within the initial ring: slots are reused constantly
	d := newDeque(burst)

	var stolen sync.Map // id -> count
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if task, ok := d.steal(); ok {
					if n, loaded := stolen.LoadOrStore(task.ID, 1); loaded {
						stolen.Store(task.ID, n.(int)+1)
					}
				}
			}
		}()
	}

	next := 0
	ownerSeen := make(map[int]int)
	for c := 0; c < cycles; c++ {
		for i := 0; i < burst; i++ {
			d.pushBottom(mkTask(next))
			next++
		}
		for {
			task, ok := d.popBottom()
			if !ok {
				break
			}
			ownerSeen[task.ID]++
		}
	}
	close(stop)
	wg.Wait()
	for {
		task, ok := d.popBottom()
		if !ok {
			break
		}
		ownerSeen[task.ID]++
	}

	total := 0
	for id, c := range ownerSeen {
		if c != 1 {
			t.Fatalf("owner extracted task %d %d times", id, c)
		}
		if v, ok := stolen.Load(id); ok {
			t.Fatalf("task %d extracted by owner and stolen %v times", id, v)
		}
		total++
	}
	stolen.Range(func(id, c any) bool {
		if c.(int) != 1 {
			t.Fatalf("task %v stolen %v times", id, c)
		}
		total++
		return true
	})
	if total != next {
		t.Fatalf("extracted %d distinct tasks, want %d", total, next)
	}
}

// TestDequeOwnerHandoffUnderMutex: the async manager's ready buffer has one
// owner at a time — whoever holds the state-machine mutex — not one owner
// goroutine. Several goroutines take turns as owner under a mutex, each
// topping the deque up to a fixed capacity the way a refill does (free
// slots computed from size() first), and steal in between; dedicated
// thieves steal throughout. Every pushed task must be taken exactly once
// and the ring must never grow past its hint.
func TestDequeOwnerHandoffUnderMutex(t *testing.T) {
	const (
		capacity = 8
		n        = 20000
		owners   = 3
		thieves  = 3
	)
	d := newDeque(capacity)
	ring := d.ring.Load()

	var mu sync.Mutex // the owner role
	next := 0         // next task ID to push; guarded by mu
	taken := make([]atomic.Int32, n)
	var left atomic.Int64
	left.Store(n)
	stealAll := func() {
		for {
			task, ok := d.steal()
			if !ok {
				return
			}
			taken[task.ID].Add(1)
			left.Add(-1)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < owners+thieves; g++ {
		wg.Add(1)
		go func(owner bool) {
			defer wg.Done()
			for left.Load() > 0 {
				if owner && mu.TryLock() {
					for free := capacity - int(d.size()); free > 0 && next < n; free-- {
						d.pushBottom(mkTask(next))
						next++
					}
					mu.Unlock()
				}
				stealAll()
			}
		}(g < owners)
	}
	wg.Wait()

	for id := range taken {
		if c := taken[id].Load(); c != 1 {
			t.Fatalf("task %d taken %d times, want exactly once", id, c)
		}
	}
	if d.ring.Load() != ring {
		t.Fatalf("ring grew to %d slots under a capacity-%d refill rule", d.ring.Load().size(), capacity)
	}
}

// TestDequeStealZeroAlloc: the steady-state steal and pop paths must not
// allocate — the per-steal allocation of the old mutex deque
// (stolen := make([]core.Task, take)) is the regression this guards.
func TestDequeStealZeroAlloc(t *testing.T) {
	d := newDeque(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			d.pushBottom(mkTask(i))
		}
		for i := 0; i < 16; i++ {
			if _, ok := d.steal(); !ok {
				t.Fatal("steal failed")
			}
		}
		for {
			if _, ok := d.popBottom(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/steal/pop allocated %.1f times per run, want 0", allocs)
	}
}

// TestShardStealZeroAlloc: the manager-level steal sweep must be
// allocation-free once rings are warm.
func TestShardStealZeroAlloc(t *testing.T) {
	m := lanesForTest(2, 64, 8)
	var load []core.Task
	for i := 0; i < 32; i++ {
		load = append(load, mkTask(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.load(1, load)
		for {
			if _, _, ok := m.steal(0, clock.Now()); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steal sweep allocated %.1f times per run, want 0", allocs)
	}
}

// TestShardFirstStealZeroAlloc: a worker's first steal — before it has
// ever refilled — allocates nothing. AllocsPerRun's warm-up call would
// absorb a first-use allocation on one manager, so every call steals on a
// manager of its own, built and loaded with a full lane beforehand.
func TestShardFirstStealZeroAlloc(t *testing.T) {
	const cap, runs = 32, 100
	var load []core.Task
	for i := 0; i < cap-1; i++ {
		load = append(load, mkTask(i+1))
	}
	ms := make([]*laneManager, runs+1) // AllocsPerRun calls once more to warm up
	for i := range ms {
		ms[i] = lanesForTest(2, cap, 8)
		ms[i].load(1, load)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := ms[next]
		next++
		if _, _, ok := m.steal(0, clock.Now()); !ok {
			t.Fatal("first steal found nothing with a loaded victim")
		}
	})
	if allocs != 0 {
		t.Fatalf("first steal on a fresh manager allocated %.1f times per run, want 0", allocs)
	}
}
