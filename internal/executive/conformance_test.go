package executive

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// This file is the cross-manager conformance suite. Every test ranges
// over ManagerKinds(), so a new manager inherits the barrier, mixed-
// mapping, race, and Done-invariant checks the moment it is registered in
// manager.go — nothing here names a specific manager.

// conformanceConfig returns a Config that stresses kind's batching paths:
// small deques, batches, and ready-buffers force constant refills,
// flushes, steals, and drains.
func conformanceConfig(kind ManagerKind, workers int) Config {
	return Config{
		Workers: workers, Manager: kind,
		DequeCap: 8, Batch: 4, ReadyCap: 8, LowWater: 2,
	}
}

// buildBarrierProbe builds a chain of Null-mapped phases whose work
// functions observe the barrier guarantee: no granule of phase p may
// execute until every granule of phase p-1 has completed. It returns the
// program, the per-phase completion counters, and a violation counter.
func buildBarrierProbe(t *testing.T, phases, n int) (*core.Program, []atomic.Int64, *atomic.Int64, []int64) {
	t.Helper()
	counts := make([]atomic.Int64, phases)
	var violations atomic.Int64
	out := make([]int64, n)
	specs := make([]*core.Phase, phases)
	for p := 0; p < phases; p++ {
		p := p
		specs[p] = &core.Phase{
			Name:     "phase" + string(rune('A'+p)),
			Granules: n,
			Work: func(g granule.ID) {
				if p > 0 && counts[p-1].Load() != int64(n) {
					violations.Add(1)
				}
				out[g] = out[g]*3 + int64(p)
				counts[p].Add(1)
			},
			// Enable nil: the Null mapping — no overlap is permitted, so
			// phases must complete strictly in program order.
		}
	}
	prog, err := core.NewProgram(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return prog, counts, &violations, out
}

// TestManagerConformanceNullMappings verifies the cross-manager guarantee
// every non-serial manager must preserve: on Null mappings, phase
// completion order is identical to the serial manager's — each phase
// fully completes before any successor granule executes, and the results
// are bit-identical across managers.
func TestManagerConformanceNullMappings(t *testing.T) {
	const phases, n = 4, 1024
	results := make(map[ManagerKind][]int64)
	for _, kind := range ManagerKinds() {
		prog, counts, violations, out := buildBarrierProbe(t, phases, n)
		rep, err := Run(prog, core.Options{
			Grain: 8, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 8))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if v := violations.Load(); v != 0 {
			t.Fatalf("%v: %d granules executed before their predecessor phase completed", kind, v)
		}
		for p := range counts {
			if c := counts[p].Load(); c != int64(n) {
				t.Fatalf("%v: phase %d completed %d of %d granules", kind, p, c, n)
			}
		}
		if rep.Tasks == 0 {
			t.Fatalf("%v: no tasks executed", kind)
		}
		results[kind] = out
	}
	serial := results[SerialManager]
	for kind, out := range results {
		if kind == SerialManager {
			continue
		}
		for i := range serial {
			if serial[i] != out[i] {
				t.Fatalf("results diverge at granule %d: serial=%d %v=%d", i, serial[i], kind, out[i])
			}
		}
	}
}

// TestManagerConformanceMixedMappings runs the same probe logic over a
// chain that alternates Null and overlap-permitting mappings: the Null
// boundaries must still barrier under every manager even while the
// identity pairs overlap.
func TestManagerConformanceMixedMappings(t *testing.T) {
	const n = 768
	for _, kind := range ManagerKinds() {
		counts := make([]atomic.Int64, 4)
		var violations atomic.Int64
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "i1", Granules: n,
				Work:   func(g granule.ID) { counts[0].Add(1) },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				// i1 -> i2 overlaps; the i2 -> n3 boundary is Null.
				Name: "i2", Granules: n,
				Work: func(g granule.ID) { counts[1].Add(1) },
			},
			&core.Phase{
				Name: "n3", Granules: n,
				Work: func(g granule.ID) {
					if counts[1].Load() != int64(n) {
						violations.Add(1)
					}
					counts[2].Add(1)
				},
				Enable: enable.NewUniversal(),
			},
			&core.Phase{
				Name: "u4", Granules: n,
				Work: func(g granule.ID) { counts[3].Add(1) },
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(prog, core.Options{
			Grain: 8, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 8)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if v := violations.Load(); v != 0 {
			t.Fatalf("%v: %d granules crossed a Null barrier early", kind, v)
		}
	}
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
		mgr, err := NewManager(sched, conformanceConfig(kind, workers))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		mgr.Start()
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				task, _, ok, _ := mgr.Enter(w, core.Task{}, clock.Now(), AskWait)
				for ok {
					if err := RunTask(prog.Phases[task.Phase].Work, task); err != nil {
						mgr.Abort(err)
						return
					}
					task, _, ok, _ = mgr.Enter(w, task, clock.Now(), AskWait)
				}
			}(w)
		}
		wg.Wait()
		mgr.Join()
		done, err := mgr.Outcome()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !done {
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

// TestManagerRace is the designated -race workout: >= 8 workers, small
// deques, batches and ready-buffers to force constant stealing, flushing
// and draining, run under every manager over every mapping kind that
// exercises a distinct release path.
func TestManagerRace(t *testing.T) {
	for _, kind := range ManagerKinds() {
		n := 2048
		a := make([]int64, n)
		b := make([]int64, n)
		c := make([]int64, n)
		d := make([]int64, n/2)
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "fill", Granules: n,
				Work:   func(g granule.ID) { a[g] = int64(g) },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "square", Granules: n,
				Work:   func(g granule.ID) { b[g] = a[g] * a[g] },
				Enable: enable.NewUniversal(),
			},
			&core.Phase{
				// square -> mix is Universal: mix may run beside square, so
				// it reads only what fill produced (fill completed before
				// square became current and mix was initiated).
				Name: "mix", Granules: n,
				Work: func(g granule.ID) { c[g] = a[g]*a[g] + 1 },
				Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
					return []granule.ID{2 * r, 2*r + 1}
				}),
			},
			&core.Phase{
				Name: "gather", Granules: n / 2,
				Work: func(g granule.ID) { d[g] = c[2*g] + c[2*g+1] },
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(prog, core.Options{
			Grain: 4, Overlap: true, Elevate: true, Costs: core.DefaultCosts(),
		}, Config{
			Workers: 10, Manager: kind,
			DequeCap: 4, Batch: 2, ReadyCap: 4, LowWater: 1,
		}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for g := 0; g < n/2; g++ {
			i, j := int64(2*g), int64(2*g+1)
			want := i*i + 1 + j*j + 1
			if d[g] != want {
				t.Fatalf("%v: d[%d] = %d, want %d", kind, g, d[g], want)
			}
			if b[i] != i*i || b[j] != j*j {
				t.Fatalf("%v: b[%d], b[%d] = %d, %d, want %d, %d", kind, i, j, b[i], b[j], i*i, j*j)
			}
		}
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
	mgr, err := NewManager(sched, conformanceConfig(kind, opt.Workers))
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
// the completion never reaches the state machine, whatever the ask. (That
// AskWait on a dry, unfinished machine with nothing in flight yields each
// manager's stall error is TestStallDetector.)
func TestEnterAfterAbortDropsCompletion(t *testing.T) {
	for _, kind := range ManagerKinds() {
		for _, ask := range []Ask{AskNone, AskTry, AskWait} {
			prog, _, _, _ := buildCopyChain(t, 64)
			sched, err := core.New(prog, core.Options{Workers: 2, Grain: 4, Overlap: true, Costs: core.DefaultCosts()})
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := NewManager(sched, conformanceConfig(kind, 2))
			if err != nil {
				t.Fatal(err)
			}
			mgr.Start()
			task, _, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskWait)
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
