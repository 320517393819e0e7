package executive

import (
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/granule"
)

// TestAsyncDefaults: the ready-buffer and low-water defaults follow the
// paper's two-tasks-per-processor outset condition.
func TestAsyncDefaults(t *testing.T) {
	m := newAsync(&stubSM{}, Config{Workers: 8, Manager: AsyncManager})
	if m.readyCap != 16 {
		t.Errorf("readyCap = %d, want 2*workers = 16", m.readyCap)
	}
	if m.lowWater != 4 {
		t.Errorf("lowWater = %d, want readyCap/4 = 4", m.lowWater)
	}
	m = newAsync(&stubSM{}, Config{Workers: 2, Manager: AsyncManager})
	if m.readyCap != 8 {
		t.Errorf("small-pool readyCap = %d, want minimum 8", m.readyCap)
	}
	m = newAsync(&stubSM{}, Config{Workers: 4, Manager: AsyncManager, ReadyCap: 4, LowWater: 9})
	if m.readyCap != 4 || m.lowWater != 3 {
		t.Errorf("explicit knobs: readyCap=%d lowWater=%d, want 4 and 3 (clamped below cap)",
			m.readyCap, m.lowWater)
	}
}

// TestAsyncInlineFallback drives the worker protocol by hand on one core
// without ever yielding to the management goroutine — the no-spare-core
// case — so every refill after the first must come from a worker that
// found the buffer empty and the executive idle and entered it. While the
// executive is busy (mu held here) the same worker is told "dry" instead
// of waiting behind it.
func TestAsyncInlineFallback(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog, a, b, c := buildCopyChain(t, 1024)
	sched, err := core.New(prog, core.Options{
		Workers: 1, Grain: 4, Overlap: true, Costs: core.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newAsync(sched, Config{Workers: 1, Manager: AsyncManager, ReadyCap: 4, Batch: 1})
	m.Start()
	finish := func(task core.Task) {
		work := prog.Phases[task.Phase].Work
		task.Run.Each(func(g granule.ID) { work(g) })
		m.Enter(0, task, clock.Now(), AskNone)
	}

	m.mu.Lock()
	var held []core.Task
	for {
		task, _, ok, _ := m.Enter(0, core.Task{}, clock.Now(), AskTry)
		if !ok {
			break // a blocking lock here would deadlock the test instead
		}
		held = append(held, task)
	}
	if len(held) == 0 || m.InlineCycles() != 0 {
		t.Fatalf("busy executive: %d tasks taken, %d inline cycles; want the buffered tasks and no cycle",
			len(held), m.InlineCycles())
	}
	m.mu.Unlock()
	for _, task := range held {
		finish(task)
	}

	for {
		task, _, ok, _ := m.Enter(0, core.Task{}, clock.Now(), AskTry)
		if ok {
			finish(task)
		} else if done, _ := m.Outcome(); done {
			break
		}
	}
	m.Join()
	if _, err := m.Outcome(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
	if m.InlineCycles() == 0 {
		t.Error("an empty buffer and an idle executive never led to an inline management cycle")
	}
}

// TestAsyncAbortReleasesWorkers: Abort must end the run for a worker still
// asking — no task comes back once the flag is up, however many are
// buffered — stop the management goroutine, and surface through Outcome.
func TestAsyncAbortReleasesWorkers(t *testing.T) {
	prog, _, _, _ := buildCopyChain(t, 64)
	sched, err := core.New(prog, core.Options{
		Workers: 2, Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newAsync(sched, Config{Workers: 2, Manager: AsyncManager})
	m.Start()
	if _, _, ok, _ := m.Enter(0, core.Task{}, clock.Now(), AskTry); !ok {
		t.Fatal("no first task")
	}
	m.Abort(errAbortTest)
	if _, _, ok, _ := m.Enter(1, core.Task{}, clock.Now(), AskTry); ok {
		t.Fatal("a task was handed out after the abort")
	}
	m.Join()
	if _, err := m.Outcome(); err != errAbortTest {
		t.Fatalf("Outcome error = %v, want the abort error", err)
	}
}

var errAbortTest = &abortErr{}

type abortErr struct{}

func (*abortErr) Error() string { return "test abort" }
