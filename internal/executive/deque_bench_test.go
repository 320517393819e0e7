package executive

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// The BenchmarkDeque* suite is the microscopic half of the perf story
// (BenchmarkManager* in the repo root is the macroscopic half): owner-side
// push/pop with no lock, steals as single CASes, and zero allocations on
// every steady-state path. CI runs these once each as a smoke.

// BenchmarkDequePushPop: the owner's uncontended push/pop pair — the cost
// a worker pays per locally-buffered task.
func BenchmarkDequePushPop(b *testing.B) {
	d := newDeque(64)
	task := mkTask(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pushBottom(task)
		if _, ok := d.popBottom(); !ok {
			b.Fatal("popBottom failed")
		}
	}
}

// BenchmarkDequePushPopDeep: push/pop across a standing backlog of 32
// tasks, so bottom moves through the ring rather than bouncing on one
// slot.
func BenchmarkDequePushPopDeep(b *testing.B) {
	d := newDeque(64)
	for i := 0; i < 32; i++ {
		d.pushBottom(mkTask(i))
	}
	task := mkTask(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pushBottom(task)
		if _, ok := d.popBottom(); !ok {
			b.Fatal("popBottom failed")
		}
	}
}

// BenchmarkDequeSteal: uncontended steals — the CAS a thief pays per task
// taken from a victim.
func BenchmarkDequeSteal(b *testing.B) {
	d := newDeque(1 << 16)
	task := mkTask(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pushBottom(task)
		if _, ok := d.steal(); !ok {
			b.Fatal("steal failed")
		}
	}
}

// BenchmarkDequeStealContended: steals racing a live owner that keeps the
// deque fed while popping its own bottom — the rundown regime.
func BenchmarkDequeStealContended(b *testing.B) {
	d := newDeque(256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := mkTask(7)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d.size() < 128 {
				d.pushBottom(task)
			} else {
				d.popBottom()
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.steal()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkDequeShardSteal: the manager-level sweep — find a victim and
// CAS one task off its lane, until every lane is empty. allocs/op must be
// 0.
func BenchmarkDequeShardSteal(b *testing.B) {
	m := lanesForTest(4, 64, 8)
	var load []core.Task
	for i := 0; i < 32; i++ {
		load = append(load, mkTask(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.load(1, load)
		for {
			if _, _, ok := m.steal(0, clock.Now()); !ok {
				break
			}
		}
	}
}
