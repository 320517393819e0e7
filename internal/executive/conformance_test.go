package executive

import (
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// This file is the hand-driven half of the cross-manager conformance suite
// (run_test.go has the half that runs whole programs through the worker
// loop). Every test ranges over ManagerKinds(), so a new manager inherits
// the checks the moment it is registered in manager.go — nothing here
// names a specific manager.

// newTestManager is NewManager with the lane manager's placement pinned
// by kind, whatever the host's core count: the sharded kind runs inline
// and the async kind dedicated, so every hand-driven suite that ranges
// over ManagerKinds() runs under both placements.
func newTestManager(sm StateMachine, cfg Config) (Manager, error) {
	mgr, err := NewManager(sm, cfg)
	if m, ok := mgr.(*laneManager); ok {
		m.dedicated = cfg.Manager == AsyncManager
	}
	return mgr, err
}

// conformanceConfig returns a Config that stresses kind's batching paths:
// small lanes and batches force constant refills, flushes, steals, and
// drains. The async lanes hold 8 tasks together, so its low-water mark
// is 2.
func conformanceConfig(kind ManagerKind, workers int) Config {
	c := Config{Workers: workers, Manager: kind, DequeCap: 8, Batch: 4}
	if kind == AsyncManager {
		c.DequeCap = max(8/workers, 1)
	}
	return c
}

// TestManagerDoneInvariant drives every manager by hand with the plain
// worker protocol and checks the post-run
// invariants the pool and the report path rely on: no error, Done() true,
// InFlight() zero, and — for managers with their own management goroutine
// — a quiescent state machine after Join, with the computed values
// correct.
func TestManagerDoneInvariant(t *testing.T) {
	for _, kind := range ManagerKinds() {
		const workers = 8
		prog, a, b, c := buildCopyChain(t, 1024)
		sched, err := core.New(prog, core.Options{
			Workers: workers, Grain: 4, Overlap: true, Costs: core.DefaultCosts(),
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := newTestManager(sched, conformanceConfig(kind, workers))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := driveWorkers(mgr, workers, prog); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if done, _ := mgr.Outcome(); !done {
			t.Fatalf("%v: workers exited but the state machine is not done", kind)
		}
		if inf := mgr.InFlight(); inf != 0 {
			t.Fatalf("%v: %d tasks still in flight after completion", kind, inf)
		}
		if got := sched.Stats().Completions; got == 0 {
			t.Fatalf("%v: no completions recorded", kind)
		}
		checkCopyChain(t, a, b, c)
	}
}

// contractCorpus is the suite's program shapes as pure scheduling runs
// (nil work): a Null-mapped barrier chain, the mixed Null/identity/
// universal chain, the identity copy chain, and the reverse-mapped chain
// with elevation.
func contractCorpus(t *testing.T) map[string]struct {
	prog *core.Program
	opt  core.Options
} {
	t.Helper()
	build := func(specs ...*core.Phase) *core.Program {
		prog, err := core.NewProgram(specs...)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	ph := func(name string, n int, en *enable.Spec) *core.Phase {
		return &core.Phase{Name: name, Granules: n, Enable: en}
	}
	pairs := func(r granule.ID) []granule.ID { return []granule.ID{2 * r, 2*r + 1} }
	opt := core.Options{Workers: 3, Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	elevated := opt
	elevated.Elevate = true
	return map[string]struct {
		prog *core.Program
		opt  core.Options
	}{
		"null":     {build(ph("a", 96, nil), ph("b", 96, nil), ph("c", 96, nil)), opt},
		"mixed":    {build(ph("i1", 96, enable.NewIdentity()), ph("i2", 96, nil), ph("n3", 96, enable.NewUniversal()), ph("u4", 96, nil)), opt},
		"identity": {build(ph("ab", 128, enable.NewIdentity()), ph("bc", 128, nil)), opt},
		"reverse":  {build(ph("fill", 128, enable.NewIdentity()), ph("sq", 128, enable.NewUniversal()), ph("mix", 128, enable.NewReverse(pairs)), ph("gather", 64, nil)), elevated},
	}
}

// driveByHand runs prog to completion on one goroutine that plays every
// worker in turn, entering the executive through enter (the fused or the
// split form of "report done, try for the next"). It returns the dispatch
// order and the scheduler's statistics, and fails the test unless every
// granule was dispatched exactly once.
func driveByHand(t *testing.T, kind ManagerKind, prog *core.Program, opt core.Options,
	enter func(m Manager, w int, done core.Task) (core.Task, bool)) ([]core.Task, core.Stats) {
	t.Helper()
	sched, err := core.New(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := newTestManager(sched, conformanceConfig(kind, opt.Workers))
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	var order []core.Task
	held := make([]core.Task, opt.Workers)
	for turn := 0; ; turn++ {
		if done, err := mgr.Outcome(); done || err != nil {
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			break
		}
		if turn > 1<<22 {
			t.Fatalf("%v: no progress after %d turns", kind, turn)
		}
		w := turn % opt.Workers
		next, ok := enter(mgr, w, held[w])
		held[w] = core.Task{}
		if ok {
			held[w] = next
			order = append(order, next)
		} else if kind == AsyncManager {
			runtime.Gosched() // the management goroutine owns the progress
		}
	}
	mgr.Join()
	ledger := make([][]int, len(prog.Phases))
	for p := range ledger {
		ledger[p] = make([]int, prog.Phases[p].Granules)
	}
	for _, task := range order {
		for g := task.Run.Lo; g < task.Run.Hi; g++ {
			ledger[task.Phase][g]++
		}
	}
	for p := range ledger {
		for g, n := range ledger[p] {
			if n != 1 {
				t.Fatalf("%v: phase %d granule %d dispatched %d times", kind, p, g, n)
			}
		}
	}
	return order, sched.Stats()
}

// TestEnterFusedEqualsSplit is the contract's differential: a completion
// and a non-parking ask made in one Enter must schedule exactly what the
// same two made in two Enters do. Twin schedulers are driven by hand, one
// each way. Under the managers whose management runs inside Enter the two
// runs must agree on every dispatch and every statistic. The async
// manager's order depends on its management goroutine — and with it how
// descriptions are carved into tasks, so not even the task count repeats —
// so each of its runs is held to the exactly-once ledger and to applying
// exactly the completions it was handed.
func TestEnterFusedEqualsSplit(t *testing.T) {
	fused := func(m Manager, w int, done core.Task) (core.Task, bool) {
		next, _, ok, _ := m.Enter(w, done, clock.Now(), AskTry)
		return next, ok
	}
	split := func(m Manager, w int, done core.Task) (core.Task, bool) {
		_, at, _, _ := m.Enter(w, done, clock.Now(), AskNone)
		next, _, ok, _ := m.Enter(w, core.Task{}, at, AskTry)
		return next, ok
	}
	for _, kind := range ManagerKinds() {
		for name, c := range contractCorpus(t) {
			fo, fs := driveByHand(t, kind, c.prog, c.opt, fused)
			so, ss := driveByHand(t, kind, c.prog, c.opt, split)
			for _, run := range []struct {
				how   string
				order []core.Task
				stats core.Stats
			}{{"fused", fo, fs}, {"split", so, ss}} {
				if n := int64(len(run.order)); run.stats.Dispatches != n || run.stats.Completions != n {
					t.Errorf("%v/%s %s: %d tasks handed out, %d dispatches and %d completions in the state machine",
						kind, name, run.how, n, run.stats.Dispatches, run.stats.Completions)
				}
			}
			if kind == AsyncManager {
				continue
			}
			if fs != ss {
				t.Errorf("%v/%s: statistics differ:\nfused %+v\nsplit %+v", kind, name, fs, ss)
			}
			if len(fo) != len(so) {
				t.Fatalf("%v/%s: fused dispatched %d tasks, split %d", kind, name, len(fo), len(so))
			}
			for i := range fo {
				if fo[i].Phase != so[i].Phase || fo[i].Run != so[i].Run {
					t.Fatalf("%v/%s: dispatch %d differs: fused %v, split %v", kind, name, i, fo[i], so[i])
				}
			}
		}
	}
}

// TestEnterAfterAbortDropsCompletion is the post-failure gate: once the
// run has failed, an Enter reporting a finished task hands out nothing and
// the completion never reaches the state machine, whatever the ask.
func TestEnterAfterAbortDropsCompletion(t *testing.T) {
	for _, kind := range ManagerKinds() {
		for _, ask := range []Ask{AskNone, AskTry} {
			prog, _, _, _ := buildCopyChain(t, 64)
			sched, err := core.New(prog, core.Options{Workers: 2, Grain: 4, Overlap: true, Costs: core.DefaultCosts()})
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := newTestManager(sched, conformanceConfig(kind, 2))
			if err != nil {
				t.Fatal(err)
			}
			mgr.Start()
			task, _, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskTry)
			if !ok {
				t.Fatalf("%v: no first task", kind)
			}
			mgr.Abort(errAbortTest)
			if _, _, ok, applied := mgr.Enter(0, task, clock.Now(), ask); ok || applied {
				t.Errorf("%v/ask %d: Enter after Abort returned ok=%v applied=%v", kind, ask, ok, applied)
			}
			mgr.Flush(0, clock.Now())
			mgr.Join()
			if _, err := mgr.Outcome(); err != errAbortTest {
				t.Errorf("%v/ask %d: outcome error %v, want the abort", kind, ask, err)
			}
			if n := sched.Stats().Completions; n != 0 {
				t.Errorf("%v/ask %d: %d completions reached the state machine after the abort", kind, ask, n)
			}
		}
	}
}
