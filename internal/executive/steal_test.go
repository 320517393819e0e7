package executive

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/granule"
)

// mkTask builds a distinguishable task for direct deque manipulation.
func mkTask(id int) core.Task {
	return core.Task{ID: id, Phase: 0, Run: granule.Range{Lo: granule.ID(id), Hi: granule.ID(id + 1)}}
}

// lanesForTest builds a lane manager whose ready lanes tests load and
// drain by hand; the steal sweep is the same under either placement.
func lanesForTest(workers, laneCap, batch int) *laneManager {
	return newLaneManager(&stubSM{}, Config{Workers: workers, DequeCap: laneCap, Batch: batch})
}

// load pushes ts into lane i the way a refill does: in the state
// machine's priority order, so the lane's worker and thieves alike take
// ts[0] first.
func (m *laneManager) load(i int, ts []core.Task) { m.lanes[i].ready.pushBottomN(ts) }

// drain takes lane i's tasks from the top until it is empty, the way its
// worker does.
func (m *laneManager) drain(i int) []core.Task {
	var out []core.Task
	for {
		t, ok := m.lanes[i].ready.steal()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// TestStealSingleTaskVictim: a thief sweeping a victim whose lane holds
// exactly one task must take that task, leave the victim empty, and leave
// nothing in its own lane.
func TestStealSingleTaskVictim(t *testing.T) {
	m := lanesForTest(4, 8, 4)
	m.load(2, []core.Task{mkTask(42)})

	got, _, ok := m.steal(0, clock.Now())
	if !ok {
		t.Fatal("steal found nothing with a one-task victim present")
	}
	if got.ID != 42 {
		t.Fatalf("stole task %d, want 42", got.ID)
	}
	for i := range m.lanes {
		if n := m.lanes[i].ready.size(); n != 0 {
			t.Errorf("lane %d holds %d tasks after the steal, want 0", i, n)
		}
	}
}

// TestStealSweepRotation: the sweep start rotates per call, so successive
// steals with every victim populated must not all hit the same neighbor —
// the bias this rotation removes had every starving worker hammering
// lane w+1 first.
func TestStealSweepRotation(t *testing.T) {
	m := lanesForTest(4, 8, 4)
	firstVictims := map[int]bool{}
	for round := 0; round < 3; round++ {
		for i := 1; i < 4; i++ {
			m.drain(i)
			m.load(i, []core.Task{mkTask(100*round + i)})
		}
		got, _, ok := m.steal(0, clock.Now())
		if !ok {
			t.Fatal("steal failed with three populated victims")
		}
		firstVictims[got.ID%100] = true
		m.drain(0)
	}
	if len(firstVictims) < 2 {
		t.Errorf("three rotated sweeps all hit the same victim %v", firstVictims)
	}
}

// TestStealTimeCountsAsMgmt: cross-lane steal sweeps run CAS loops
// outside the global lock, so their time must still be folded into Totals'
// management time — otherwise reported computation-to-management ratios
// undercount the lane manager's management.
func TestStealTimeCountsAsMgmt(t *testing.T) {
	m := lanesForTest(2, 8, 4)
	_, before, _ := m.Totals()
	m.load(1, []core.Task{mkTask(1), mkTask(2)})
	if _, _, ok := m.steal(0, clock.Now()); !ok {
		t.Fatal("steal failed")
	}
	if m.stealNS.Load() <= 0 {
		t.Fatal("steal sweep recorded no time")
	}
	if _, got, _ := m.Totals(); got <= before {
		t.Errorf("management time = %v after a steal, want > %v (steal time folded in)", got, before)
	}
}

// TestStealPriorityOrder: a refill-ordered lane hands its worker and a
// thief alike its tasks in the state machine's priority order — a thief's
// sweep takes the best task left — and a steal parks nothing in the
// thief's own lane.
func TestStealPriorityOrder(t *testing.T) {
	m := lanesForTest(2, 8, 4)
	// Priority order 0,1,2,3: the lane's worker takes 0 first.
	m.load(1, []core.Task{mkTask(0), mkTask(1), mkTask(2), mkTask(3)})
	if got, ok := m.lanes[1].ready.steal(); !ok || got.ID != 0 {
		t.Fatalf("the lane's worker took %v, want task 0", got)
	}
	got, _, ok := m.steal(0, clock.Now())
	if !ok {
		t.Fatal("steal failed")
	}
	if got.ID != 1 {
		t.Errorf("thief took task %d, want 1 (the best task left)", got.ID)
	}
	if n := m.lanes[0].ready.size(); n != 0 {
		t.Errorf("the thief's lane holds %d tasks after one steal, want 0", n)
	}
	if rest := m.drain(1); len(rest) != 2 || rest[0].ID != 2 || rest[1].ID != 3 {
		t.Errorf("victim's worker took %v next, want tasks 2 and 3", rest)
	}
}

// TestStealRacesRefill is the -race workout for the ready lane in its
// manager context, the inline placement's: one worker refilling its own
// lane to capacity in bursts and taking from its top, against several
// thieves sweeping steal, must hand every task to exactly one goroutine.
func TestStealRacesRefill(t *testing.T) {
	const (
		thieves = 6
		batches = 256
		perLoad = 8 // the lane's capacity: each burst fills it
	)
	m := lanesForTest(thieves+1, perLoad, 4)

	var mu sync.Mutex
	seen := map[int]int{}
	record := func(task core.Task) {
		mu.Lock()
		seen[task.ID]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 1; th <= thieves; th++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if task, _, ok := m.steal(w, clock.Now()); ok {
					record(task)
				}
			}
		}(th)
	}

	// The worker fills its lane in bursts and takes from it until it is
	// empty, racing the thieves' CAS grabs at the same end.
	next := 0
	for b := 0; b < batches; b++ {
		var load []core.Task
		for i := 0; i < perLoad; i++ {
			load = append(load, mkTask(next))
			next++
		}
		m.load(0, load)
		for _, task := range m.drain(0) {
			record(task)
		}
	}
	close(stop)
	wg.Wait()
	for w := 0; w <= thieves; w++ {
		if n := m.lanes[w].ready.size(); n != 0 {
			t.Errorf("lane %d holds %d tasks after the run, want 0", w, n)
		}
	}

	if len(seen) != next {
		t.Fatalf("extracted %d distinct tasks, want %d", len(seen), next)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d extracted %d times", id, n)
		}
	}
}
