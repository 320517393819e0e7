package executive

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/granule"
)

func laneTask(i int) core.Task {
	return core.Task{ID: i, Phase: granule.PhaseID(i % 7), Run: granule.Range{Lo: granule.ID(i), Hi: granule.ID(i + 1)}}
}

// laneCompute is the compute time queued with task i: distinct per task,
// so a slot that paired one task with another's time would show.
func laneCompute(i int) time.Duration { return time.Duration(3*i + 1) }

// newTestLane builds one lane with a completion ring of compCap slots.
func newTestLane(compCap int) *compLane { return &newLanes(1, 1, compCap)[0].comp }

// TestLaneFIFO: one worker's completions come out of the drain in the
// order it queued them, with their compute times summed, across several
// laps of the ring.
func TestLaneFIFO(t *testing.T) {
	q := newTestLane(8)
	next := 0
	for lap := 0; lap < 5; lap++ {
		var want time.Duration
		for i := 0; i < 6; i++ {
			if !q.push(laneTask(next+i), laneCompute(next+i)) {
				t.Fatalf("lap %d: push %d refused by a lane that is not full", lap, i)
			}
			want += laneCompute(next + i)
		}
		if !q.publish() {
			t.Fatalf("lap %d: publish found nothing to publish", lap)
		}
		got, compute := q.drain(nil)
		if len(got) != 6 || compute != want {
			t.Fatalf("lap %d: drained %d tasks with compute %v, want 6 with %v", lap, len(got), compute, want)
		}
		for i, task := range got {
			if task != laneTask(next+i) {
				t.Fatalf("lap %d: drained[%d] = %v, want %v", lap, i, task, laneTask(next+i))
			}
		}
		next += 6
	}
	if got, _ := q.drain(nil); len(got) != 0 {
		t.Fatalf("drain of an empty lane returned %v", got)
	}
	if q.publish() {
		t.Fatal("publish of an empty lane reported something published")
	}
}

// TestLaneFull: a full lane refuses a push without losing or overwriting
// anything, and takes pushes again once a drain has handed slots back.
func TestLaneFull(t *testing.T) {
	q := newTestLane(8)
	n := 0
	for q.push(laneTask(n), laneCompute(n)) {
		n++
		if n > 1024 {
			t.Fatal("lane never filled")
		}
	}
	if n != 8 {
		t.Fatalf("capacity %d, want 8", n)
	}
	// Published or not, a full lane stays full until it is drained.
	q.publish()
	if q.push(laneTask(n), 0) {
		t.Fatal("push on a full, published lane succeeded")
	}
	got, _ := q.drain(nil)
	if len(got) != 8 {
		t.Fatalf("drained %d of 8", len(got))
	}
	for i, task := range got {
		if task != laneTask(i) {
			t.Fatalf("drained[%d] = %v, want %v: the refused push overwrote a slot", i, task, laneTask(i))
		}
	}
	if !q.push(laneTask(n), 0) {
		t.Fatal("push after the drain refused")
	}
}

// TestLaneUnpublishedInvisible: a completion that was pushed but not
// published is invisible to the drain, however often it drains, and
// appears — in order, behind the ones published before it — the moment
// the worker publishes.
func TestLaneUnpublishedInvisible(t *testing.T) {
	q := newTestLane(16)
	q.push(laneTask(1), laneCompute(1))
	q.publish()
	q.push(laneTask(2), laneCompute(2))
	q.push(laneTask(3), laneCompute(3))
	if got, _ := q.drain(nil); len(got) != 1 || got[0] != laneTask(1) {
		t.Fatalf("drain = %v, want only the published task 1", got)
	}
	for i := 0; i < 3; i++ {
		if got, compute := q.drain(nil); len(got) != 0 || compute != 0 {
			t.Fatalf("drain saw unpublished completions: %v (compute %v)", got, compute)
		}
	}
	if q.pending() != 2 {
		t.Fatalf("pending = %d, want 2", q.pending())
	}
	q.publish()
	got, compute := q.drain(nil)
	if len(got) != 2 || got[0] != laneTask(2) || got[1] != laneTask(3) {
		t.Fatalf("drain after publish = %v, want tasks 2 and 3", got)
	}
	if want := laneCompute(2) + laneCompute(3); compute != want {
		t.Fatalf("compute = %v, want %v", compute, want)
	}
}

// TestLaneRacesDrainer is the -race workout: one producer queues into a
// small lane and publishes at arbitrary points — after every push, after a
// run of them, when the lane is full — while a drainer drains it
// concurrently; every task comes out exactly once, in order, with the
// compute time it went in with. The small ring keeps the producer hitting
// full, exercising the cached head and the slot hand-back.
func TestLaneRacesDrainer(t *testing.T) {
	const total = 1 << 15
	q := newTestLane(16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := uint32(12345)
		for i := 0; i < total; i++ {
			for !q.push(laneTask(i), laneCompute(i)) {
				q.publish()
				runtime.Gosched()
			}
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			if rng%4 == 0 {
				q.publish()
			}
		}
		q.publish()
	}()

	var buf []core.Task
	got := 0
	for got < total {
		var compute time.Duration
		buf, compute = q.drain(buf[:0])
		if len(buf) == 0 {
			runtime.Gosched()
			continue
		}
		var want time.Duration
		for _, task := range buf {
			if task != laneTask(got) {
				t.Fatalf("drained %v, want %v", task, laneTask(got))
			}
			want += laneCompute(got)
			got++
		}
		if compute != want {
			t.Fatalf("run ending at task %d: compute %v, want %v", got-1, compute, want)
		}
	}
	wg.Wait()
	if rest, _ := q.drain(nil); len(rest) != 0 {
		t.Fatalf("lane not empty after the full drain: %v", rest)
	}
}

// TestLaneAllocs: steady-state push, publish and drain allocate nothing.
func TestLaneAllocs(t *testing.T) {
	q := newTestLane(64)
	buf := make([]core.Task, 0, 64)
	if avg := testing.AllocsPerRun(1000, func() {
		q.push(laneTask(1), 1)
		q.publish()
		buf, _ = q.drain(buf[:0])
	}); avg != 0 {
		t.Fatalf("push+publish+drain allocates %v per op", avg)
	}
}

// TestRefillTopsUpFreeSlots: a refill asks the state machine for no more
// than a lane's free slots, so it never overwrites a live task: lanes that
// their workers part-drained are topped up to exactly laneCap, and every
// task comes out once, each lane in the state machine's order.
func TestRefillTopsUpFreeSlots(t *testing.T) {
	const laneCap = 8
	sm := newCountingSM(64)
	m := newLaneManager(sm, Config{Workers: 2, Manager: AsyncManager, DequeCap: laneCap})
	m.refillLocked(-1) // lane 0 holds 1..8, lane 1 holds 9..16
	seen := map[int]int{}
	for w, n := range []int{3, 5} {
		for range n {
			task, ok := m.lanes[w].ready.steal()
			if !ok {
				t.Fatalf("lane %d ran dry after a full refill", w)
			}
			seen[task.ID]++
		}
	}
	m.refillLocked(-1)
	for w := range m.lanes {
		if n := m.lanes[w].ready.size(); n != laneCap {
			t.Errorf("lane %d holds %d tasks after a top-up, want %d", w, n, laneCap)
		}
		last := 0
		for _, task := range m.drain(w) {
			if task.ID < last {
				t.Errorf("lane %d handed out task %d after %d", w, task.ID, last)
			}
			last = task.ID
			seen[task.ID]++
		}
	}
	if len(seen) != sm.issued {
		t.Errorf("%d distinct tasks came out of the lanes, %d were issued", len(seen), sm.issued)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d came out %d times", id, n)
		}
	}
}
