package executive

import (
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

// TestManagerDoneInvariant drives every manager through the PoolDriver
// surface with the plain worker protocol and checks the post-run
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
		mgr, err := NewPoolDriver(sched, conformanceConfig(kind, workers))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		mgr.Start()
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				task, _, ok := mgr.Next(w, clock.Now())
				for ok {
					if err := RunTask(prog.Phases[task.Phase].Work, task); err != nil {
						mgr.Abort(err)
						return
					}
					task, _, ok = mgr.CompleteNext(w, task, clock.Now())
				}
			}(w)
		}
		wg.Wait()
		if j, ok := mgr.(Joiner); ok {
			j.Join()
		}
		if err := mgr.Err(); err != nil {
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
