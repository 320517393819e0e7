package executive

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/granule"
)

func mpscTask(i int) core.Task {
	return core.Task{ID: i, Phase: granule.PhaseID(i % 7), Run: granule.Range{Lo: granule.ID(i), Hi: granule.ID(i + 1)}}
}

// mpscCompute is the compute time pushed with task i: distinct per task, so
// a slot that paired one task with another's time would show.
func mpscCompute(i int) time.Duration { return time.Duration(3*i + 1) }

// TestMPSCFIFO: single-threaded push/pop is FIFO across several ring laps.
func TestMPSCFIFO(t *testing.T) {
	q := newMPSC(8)
	next := 0
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < 6; i++ {
			if !q.push(mpscTask(next+i), mpscCompute(next+i)) {
				t.Fatalf("lap %d: push %d failed on a non-full queue", lap, i)
			}
		}
		for i := 0; i < 6; i++ {
			task, compute, ok := q.pop()
			if !ok {
				t.Fatalf("lap %d: pop %d empty", lap, i)
			}
			if task != mpscTask(next+i) || compute != mpscCompute(next+i) {
				t.Fatalf("lap %d: pop %d = %v (%v), want %v (%v)", lap, i, task, compute, mpscTask(next+i), mpscCompute(next+i))
			}
		}
		next += 6
	}
	if _, _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

// TestMPSCFull: a full ring rejects pushes without losing anything, and
// frees exactly one slot per pop.
func TestMPSCFull(t *testing.T) {
	q := newMPSC(8)
	n := 0
	for q.push(mpscTask(n), 0) {
		n++
		if n > 1024 {
			t.Fatal("queue never filled")
		}
	}
	if n != 8 {
		t.Fatalf("capacity %d, want 8", n)
	}
	if _, _, ok := q.pop(); !ok {
		t.Fatal("pop on full queue failed")
	}
	if !q.push(mpscTask(n), 0) {
		t.Fatal("push after pop failed")
	}
	if q.push(mpscTask(n+1), 0) {
		t.Fatal("push on re-filled queue succeeded")
	}
	for i := 1; i <= n; i++ {
		task, _, ok := q.pop()
		if !ok || task != mpscTask(i) {
			t.Fatalf("drain %d = %v,%v, want %v", i, task, ok, mpscTask(i))
		}
	}
}

// TestMPSCConcurrentProducers is the -race workout: GOMAXPROCS producers
// hammer one small ring while a single consumer drains it; every task
// must come out exactly once, with the compute time it went in with. The
// tiny ring forces constant full/retry cycles, exercising the
// claimed-but-unpublished window.
func TestMPSCConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 4096
	q := newMPSC(16)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := p*perProducer + i
				for !q.push(mpscTask(id), mpscCompute(id)) {
					runtime.Gosched()
				}
			}
		}(p)
	}

	seen := make([]bool, producers*perProducer)
	got := 0
	for got < producers*perProducer {
		task, compute, ok := q.pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if task.ID < 0 || task.ID >= len(seen) {
			t.Fatalf("popped alien task %v", task)
		}
		if seen[task.ID] {
			t.Fatalf("task %d popped twice", task.ID)
		}
		if task != mpscTask(task.ID) || compute != mpscCompute(task.ID) {
			t.Fatalf("task %d tore: %v with compute %v", task.ID, task, compute)
		}
		seen[task.ID] = true
		got++
	}
	wg.Wait()
	if _, _, ok := q.pop(); ok {
		t.Fatal("queue not empty after full drain")
	}
}

// TestMPSCAllocs: steady-state push and pop allocate nothing.
func TestMPSCAllocs(t *testing.T) {
	q := newMPSC(64)
	if avg := testing.AllocsPerRun(1000, func() {
		q.push(mpscTask(1), 1)
		q.pop()
	}); avg != 0 {
		t.Fatalf("push+pop allocates %v per op", avg)
	}
}
