package executive

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/granule"
)

// mkTask builds a distinguishable task for direct deque manipulation.
func mkTask(id int) core.Task {
	return core.Task{ID: id, Phase: 0, Run: granule.Range{Lo: granule.ID(id), Hi: granule.ID(id + 1)}}
}

func shardedForTest(workers, dequeCap, batch int) *sharded {
	return newSharded(&stubSM{}, Config{Workers: workers, DequeCap: dequeCap, Batch: batch})
}

// load pushes ts into shard i's deque the way a refill would: reversed, so
// the owner's popBottom consumes ts in order and thieves steal from the
// ts tail.
func (m *sharded) load(i int, ts []core.Task) {
	for k := len(ts) - 1; k >= 0; k-- {
		m.shards[i].dq.pushBottom(ts[k])
	}
}

// drain pops shard i's deque empty from the owner side.
func (m *sharded) drain(i int) []core.Task {
	var out []core.Task
	for {
		t, ok := m.shards[i].dq.popBottom()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// TestStealSingleTaskVictim: a thief sweeping a victim whose deque holds
// exactly one task must take that task (half of one is one), leave the
// victim empty, and leave nothing parked in its own deque.
func TestStealSingleTaskVictim(t *testing.T) {
	m := shardedForTest(4, 8, 4)
	m.load(2, []core.Task{mkTask(42)})

	got, _, ok := m.steal(0, clock.Now())
	if !ok {
		t.Fatal("steal found nothing with a one-task victim present")
	}
	if got.ID != 42 {
		t.Fatalf("stole task %d, want 42", got.ID)
	}
	for i := range m.shards {
		if n := m.shards[i].dq.size(); n != 0 {
			t.Errorf("shard %d holds %d tasks after the steal, want 0", i, n)
		}
	}
}

// TestStealLandsAtDequeCap: stealing half of a full victim (2*cap tasks)
// hands the thief exactly cap tasks — one in hand, cap-1 parked in its own
// deque. Nothing may be lost or duplicated at the boundary.
func TestStealLandsAtDequeCap(t *testing.T) {
	const cap = 8
	m := shardedForTest(2, cap, 4)
	var all []core.Task
	for i := 0; i < 2*cap; i++ {
		all = append(all, mkTask(i))
	}
	m.load(1, all)

	got, _, ok := m.steal(0, clock.Now())
	if !ok {
		t.Fatal("steal failed against a full victim")
	}
	if n := m.shards[0].dq.size(); n != cap-1 {
		t.Fatalf("thief deque holds %d tasks, want %d (cap-1, one in hand)", n, cap-1)
	}
	if n := m.shards[1].dq.size(); n != cap {
		t.Fatalf("victim deque holds %d tasks, want %d", n, cap)
	}
	seen := map[int]int{got.ID: 1}
	for w := 0; w < 2; w++ {
		for _, task := range m.drain(w) {
			seen[task.ID]++
		}
	}
	for i := 0; i < 2*cap; i++ {
		if seen[i] != 1 {
			t.Fatalf("task %d present %d times after the steal, want exactly once", i, seen[i])
		}
	}
}

// TestStealSweepRotation: the sweep start rotates per call, so successive
// steals with every victim populated must not all hit the same neighbor —
// the bias this rotation removes had every starving worker hammering
// shard w+1 first.
func TestStealSweepRotation(t *testing.T) {
	m := shardedForTest(4, 8, 4)
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

// TestStealTimeCountsAsMgmt: steal sweeps run CAS loops and deque
// transfers outside the global lock, so their time must still be folded
// into Totals' management time — otherwise reported computation-to-management ratios
// undercount sharded management.
func TestStealTimeCountsAsMgmt(t *testing.T) {
	m := shardedForTest(2, 8, 4)
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

// TestStealPriorityOrder: a refill-ordered deque must hand the owner its
// tasks in priority order while a thief's sweep returns the
// highest-priority task of the half it stole.
func TestStealPriorityOrder(t *testing.T) {
	m := shardedForTest(2, 8, 4)
	// Priority order 0,1,2,3: the owner must pop 0 first.
	m.load(1, []core.Task{mkTask(0), mkTask(1), mkTask(2), mkTask(3)})
	if got, ok := m.shards[1].dq.popBottom(); !ok || got.ID != 0 {
		t.Fatalf("owner popped %v, want task 0", got)
	}
	// Thief steals half of {1,2,3} = 2 tasks from the low-priority end
	// (3, then 2) and runs the better of them first.
	got, _, ok := m.steal(0, clock.Now())
	if !ok {
		t.Fatal("steal failed")
	}
	if got.ID != 2 {
		t.Errorf("thief ran task %d first, want 2 (best of the stolen half)", got.ID)
	}
	rest := m.drain(0)
	if len(rest) != 1 || rest[0].ID != 3 {
		t.Errorf("thief parked %v, want [task 3]", rest)
	}
	if got, ok := m.shards[1].dq.popBottom(); !ok || got.ID != 1 {
		t.Fatalf("victim owner popped %v, want task 1", got)
	}
}

// TestStealRacesPopBottom is the -race workout for the deque protocol in
// its manager context: one owner draining popBottom against several
// thieves sweeping steal, with refills, must hand every task to exactly
// one goroutine.
func TestStealRacesPopBottom(t *testing.T) {
	const (
		thieves = 6
		batches = 64
		perLoad = 32
	)
	m := shardedForTest(thieves+1, 8, 4)

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
				// A successful steal parks part of the loot in the thief's
				// own deque; drain it so the count balances.
				for {
					task, ok := m.shards[w].dq.popBottom()
					if !ok {
						break
					}
					record(task)
				}
			}
		}(th)
	}

	// The owner loads its deque in bursts and drains popBottom, racing the
	// thieves' top-end CAS grabs.
	next := 0
	for b := 0; b < batches; b++ {
		var load []core.Task
		for i := 0; i < perLoad; i++ {
			load = append(load, mkTask(next))
			next++
		}
		m.load(0, load)
		for {
			task, ok := m.shards[0].dq.popBottom()
			if !ok {
				break
			}
			record(task)
		}
	}
	// Let the thieves mop up whatever they parked locally.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == next || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for w := 0; w <= thieves; w++ {
		for {
			task, ok := m.shards[w].dq.popBottom()
			if !ok {
				break
			}
			record(task)
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
