package executive

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// The BenchmarkDeque* suite is the microscopic half of the perf story
// (BenchmarkManager* in the repo root is the macroscopic half): steals as
// single CASes, a refill as one published batch, and zero allocations on
// every steady-state path. CI runs these once each as a smoke.

// BenchmarkDequeSteal: uncontended steals — the CAS a worker pays per task
// taken from a lane, its own or a victim's.
func BenchmarkDequeSteal(b *testing.B) {
	d := newTestDeque(64)
	task := []core.Task{mkTask(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pushBottomN(task)
		if _, ok := d.steal(); !ok {
			b.Fatal("steal failed")
		}
	}
}

// BenchmarkDequeStealContended: steals racing a live producer that keeps
// the lane fed while taking from it too — the rundown regime.
func BenchmarkDequeStealContended(b *testing.B) {
	d := newTestDeque(256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := []core.Task{mkTask(7)}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d.size() < 128 {
				d.pushBottomN(task)
			} else {
				d.steal()
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
