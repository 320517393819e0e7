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

// newTestDeque builds one ready lane of n slots (rounded up to a power
// of two) the way the lane manager does.
func newTestDeque(n int) *deque { return &newLanes(1, n, 1)[0].ready }

// TestDequeSlotRoundTrip: a slot packs a core.Task into two words, which
// is exact only while every field fits in 31 bits. core guarantees that
// (an ID is an arena index below 2^31, a phase an int32, a granule at most
// 2^31-1); a task at those bounds must come back from the ring unchanged,
// field by field.
func TestDequeSlotRoundTrip(t *testing.T) {
	const maxGranules = 1<<31 - 1
	d := newTestDeque(8)
	for _, want := range []core.Task{
		{ID: 1<<31 - 1, Phase: math.MaxInt32, Run: granule.Range{Lo: maxGranules, Hi: maxGranules}},
		{ID: 1<<31 - 1, Phase: math.MaxInt32, Run: granule.Range{Lo: 0, Hi: maxGranules}},
		{ID: 1, Phase: 0, Run: granule.Range{Lo: maxGranules - 1, Hi: maxGranules}},
		{ID: 5, Phase: 3, Run: granule.Range{Lo: 1 << 16, Hi: 1<<16 + 1}},
	} {
		d.store(3, want)
		if got := d.load(3); got != want {
			t.Errorf("store/load = %+v, want %+v", got, want)
		}
	}
}

// TestDequeSlotStride: a slot is 32 bytes, two to a cache line, though two
// words would fit in 16 — the ready lane's pushing and stealing ends share
// fewer lines that way (EXPERIMENTS.md, two-word deque slots).
func TestDequeSlotStride(t *testing.T) {
	if n := unsafe.Sizeof(dequeSlot{}); n != 32 {
		t.Fatalf("dequeSlot is %d bytes, want 32", n)
	}
}

// TestDequePushNRacesThieves is the -race workout for batched
// publication: the producer tops a 32-slot ring up with batches of varying
// size, never past what size left free, and takes some back from the top
// as the lane's worker does, while GOMAXPROCS thieves steal throughout.
// Every task pushed must be taken exactly once.
func TestDequePushNRacesThieves(t *testing.T) {
	thieves := max(runtime.GOMAXPROCS(0), 2)
	const n, capacity = 20000, 32
	d := newTestDeque(capacity)
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

	batch := make([]core.Task, 0, capacity)
	for next, size := 0, 1; next < n; size = size%29 + 1 {
		batch = batch[:0]
		for free := capacity - int(d.size()); len(batch) < min(size, free) && next < n; next++ {
			batch = append(batch, mkTask(next))
		}
		d.pushBottomN(batch)
		for i := 0; i < size/3; i++ {
			if task, ok := d.steal(); ok {
				taken[task.ID].Add(1)
			}
		}
	}
	for {
		task, ok := d.steal()
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

// TestDequeTopMonotonic: the ABA guard on the steal index is top's
// monotonicity — concurrent thieves CASing the same top value must never
// extract the same task twice even as the producer refills around them.
// GOMAXPROCS thieves hammer one lane through continuous fill/drain cycles
// that fill the whole ring and wrap it many times (index reuse at the same
// slot is exactly the ABA shape).
func TestDequeTopMonotonic(t *testing.T) {
	thieves := max(runtime.GOMAXPROCS(0), 4)
	const cycles = 3000
	const burst = 8 // the whole ring: slots are reused constantly
	d := newTestDeque(burst)

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
	batch := make([]core.Task, 0, burst)
	for c := 0; c < cycles; c++ {
		batch = batch[:0]
		for range burst {
			batch = append(batch, mkTask(next))
			next++
		}
		d.pushBottomN(batch)
		for {
			task, ok := d.steal()
			if !ok {
				break
			}
			ownerSeen[task.ID]++
		}
	}
	close(stop)
	wg.Wait()

	total := 0
	for id, c := range ownerSeen {
		if c != 1 {
			t.Fatalf("the lane's worker extracted task %d %d times", id, c)
		}
		if v, ok := stolen.Load(id); ok {
			t.Fatalf("task %d extracted by the lane's worker and stolen %v times", id, v)
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

// TestDequeOwnerHandoffUnderMutex: a ready lane has one producer at a
// time — whoever holds the state-machine mutex — not one producer
// goroutine. Several goroutines take turns as producer under a mutex, each
// topping the lane up to its capacity the way a refill does (free slots
// computed from size() first, one pushBottomN), and steal in between;
// dedicated thieves steal throughout. Every pushed task must be taken
// exactly once, and no one may ever see the lane hold more than its
// capacity.
func TestDequeOwnerHandoffUnderMutex(t *testing.T) {
	const (
		capacity = 8
		n        = 20000
		owners   = 3
		thieves  = 3
	)
	d := newTestDeque(capacity)

	var mu sync.Mutex // the producer role
	next := 0         // next task ID to push; guarded by mu
	batch := make([]core.Task, 0, capacity)
	taken := make([]atomic.Int32, n)
	var left, over atomic.Int64
	left.Store(n)
	stealAll := func() {
		for {
			if d.size() > capacity {
				over.Add(1)
			}
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
					batch = batch[:0]
					for free := capacity - int(d.size()); free > 0 && next < n; free-- {
						batch = append(batch, mkTask(next))
						next++
					}
					d.pushBottomN(batch)
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
	if c := over.Load(); c != 0 {
		t.Fatalf("the lane read above its capacity %d times", c)
	}
}

// TestDequeStealZeroAlloc: the steady-state push and steal paths must not
// allocate — the per-steal allocation of the old mutex deque
// (stolen := make([]core.Task, take)) is the regression this guards.
func TestDequeStealZeroAlloc(t *testing.T) {
	d := newTestDeque(64)
	batch := make([]core.Task, 32)
	for i := range batch {
		batch[i] = mkTask(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.pushBottomN(batch)
		for {
			if _, ok := d.steal(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/steal allocated %.1f times per run, want 0", allocs)
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
