package executive_test

// The half of the executive's suite that runs whole programs: every test
// here goes through the front door — Runner.Run on goroutines, a one-job
// run of the tenant pool's worker loop, the only one there is — under the
// manager configuration it names. The hand-driven half, which needs the
// managers' internals, is in package executive.

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
)

var (
	buildCopyChain    = executive.BuildCopyChain
	checkCopyChain    = executive.CheckCopyChain
	conformanceConfig = executive.ConformanceConfig
)

// run executes prog as a Runner.Run on goroutines, configured as the
// manager config c says plus any further options.
func run(ctx context.Context, prog *core.Program, opt core.Options, c executive.Config, more ...rundown.Option) (*rundown.Report, error) {
	return runJob(ctx, rundown.Job{Prog: prog, Opt: opt}, c, more...)
}

// runJob is run for a job with its own failure policy.
func runJob(ctx context.Context, job rundown.Job, c executive.Config, more ...rundown.Option) (*rundown.Report, error) {
	r, err := rundown.New(append([]rundown.Option{
		rundown.WithWorkers(c.Workers), rundown.WithManager(c.Manager),
		rundown.WithDequeCap(c.DequeCap), rundown.WithBatch(c.Batch),
		rundown.WithReadyCap(c.ReadyCap), rundown.WithLowWater(c.LowWater),
	}, more...)...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, job)
}

func TestExecutiveBarrier(t *testing.T) {
	prog, a, b, c := buildCopyChain(t, 2048)
	rep, err := run(context.Background(), prog, core.Options{Grain: 32, Overlap: false, Costs: core.DefaultCosts()},
		executive.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
	if rep.Exec.Tasks == 0 || rep.Exec.Wall <= 0 {
		t.Errorf("report %v", rep)
	}
}

func TestExecutiveOverlapIdentity(t *testing.T) {
	for _, mode := range []core.IdentityMode{core.IdentityConflictQueue, core.IdentityTable} {
		prog, a, b, c := buildCopyChain(t, 2048)
		rep, err := run(context.Background(), prog, core.Options{
			Grain: 16, Overlap: true, IdentityVia: mode, Costs: core.DefaultCosts(),
		}, executive.Config{Workers: 8})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		checkCopyChain(t, a, b, c)
		if rep.Exec.Sched.Completions == 0 {
			t.Errorf("mode %v: no completions", mode)
		}
	}
}

func TestExecutiveOverlapDeferredSplit(t *testing.T) {
	prog, a, b, c := buildCopyChain(t, 1024)
	_, err := run(context.Background(), prog, core.Options{
		Grain: 8, Overlap: true,
		IdentityVia: core.IdentityConflictQueue, SuccSplit: core.SuccSplitDeferred,
		Costs: core.DefaultCosts(),
	}, executive.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
}

func TestExecutiveReverseGather(t *testing.T) {
	// Phase 1 computes A[p]; phase 2 gathers D[r] = A[2r] + A[2r+1],
	// declared as a reverse indirect mapping — the overlapped executive
	// must never run a gather before both sources are written.
	n := 512
	a := make([]int64, 2*n)
	d := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: 2 * n,
			Work: func(g granule.ID) { a[g] = int64(g) * 7 },
			Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{2 * r, 2*r + 1}
			}),
		},
		&core.Phase{
			Name: "gather", Granules: n,
			Work: func(g granule.ID) { d[g] = a[2*g] + a[2*g+1] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(context.Background(), prog, core.Options{
		Grain: 8, Overlap: true, Elevate: true, SubsetSize: 32,
		Costs: core.DefaultCosts(),
	}, executive.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		want := int64(2*r)*7 + int64(2*r+1)*7
		if d[r] != want {
			t.Fatalf("d[%d] = %d, want %d", r, d[r], want)
		}
	}
}

func TestExecutiveSerialAction(t *testing.T) {
	var order []string
	var mu atomic.Int64
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "a", Granules: 64,
			Work: func(g granule.ID) { mu.Add(1) },
		},
		&core.Phase{
			Name: "b", Granules: 64,
			SerialBefore: func() {
				if mu.Load() != 64 {
					order = append(order, "early")
				}
				order = append(order, "serial")
			},
			Work: func(g granule.ID) { mu.Add(1) },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), prog, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
		executive.Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "serial" {
		t.Fatalf("serial action order = %v", order)
	}
	if mu.Load() != 128 {
		t.Fatalf("work count = %d", mu.Load())
	}
}

// TestExecutiveEquivalence: overlapped execution must produce bit-identical
// results to barrier execution for a correctly declared program.
func TestExecutiveEquivalence(t *testing.T) {
	run := func(overlap bool) []int64 {
		n := 1024
		a := make([]int64, n)
		b := make([]int64, n)
		c := make([]int64, n)
		for i := range a {
			a[i] = int64(i)
		}
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "p1", Granules: n,
				Work:   func(g granule.ID) { b[g] = a[g]*a[g] + 1 },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "p2", Granules: n,
				Work:   func(g granule.ID) { c[g] = b[g] ^ (b[g] >> 3) },
				Enable: enable.NewUniversal(),
			},
			&core.Phase{
				Name: "p3", Granules: n,
				Work: func(g granule.ID) { a[g] = -int64(g) }, // disjoint output: universal is sound
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = run(context.Background(), prog, core.Options{Grain: 16, Overlap: overlap, Costs: core.DefaultCosts()},
			executive.Config{Workers: 6})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	barrier := run(false)
	overlap := run(true)
	for i := range barrier {
		if barrier[i] != overlap[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, barrier[i], overlap[i])
		}
	}
}

func TestExecutiveSingleWorker(t *testing.T) {
	prog, a, b, c := buildCopyChain(t, 256)
	if _, err := run(context.Background(), prog, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()},
		executive.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
}

func TestExecutiveConfigValidation(t *testing.T) {
	prog, _, _, _ := buildCopyChain(t, 16)
	if _, err := run(context.Background(), prog, core.Options{}, executive.Config{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestExecutiveWorkPanicSurfaces(t *testing.T) {
	prog, err := core.NewProgram(
		&core.Phase{Name: "a", Granules: 4, Work: func(g granule.ID) {
			if g == 2 {
				panic("boom")
			}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), prog, core.Options{Grain: 1}, executive.Config{Workers: 2}); err == nil {
		t.Fatal("work panic did not surface as an error")
	}
}

// TestWorkPanicMidPhase: a work-function panic in the middle phase of a
// three-phase program must surface as a run error under both managers,
// with the remaining workers released.
func TestWorkPanicMidPhase(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		n := 512
		a := make([]int64, n)
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "fill", Granules: n,
				Work:   func(g granule.ID) { a[g] = int64(g) },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "poison", Granules: n,
				Work: func(g granule.ID) {
					if g == granule.ID(n/2) {
						panic("mid-phase poison")
					}
				},
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "after", Granules: n,
				Work: func(g granule.ID) { a[g] = -a[g] },
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = run(context.Background(), prog, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()},
			executive.Config{Workers: 8, Manager: kind, DequeCap: 4, Batch: 2})
		if err == nil {
			t.Fatalf("%v: mid-phase panic did not surface", kind)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%v: error %q does not mention the panic", kind, err)
		}
	}
}

// TestShardedCorrectness runs the copy chain under the sharded manager
// across deque/batch extremes and verifies the computed values.
func TestShardedCorrectness(t *testing.T) {
	cases := []struct{ workers, deque, batch, grain int }{
		{1, 1, 1, 4},
		{4, 2, 1, 4},
		{8, 16, 8, 8},
		{12, 64, 32, 2},
	}
	for _, tc := range cases {
		prog, a, b, c := buildCopyChain(t, 2048)
		rep, err := run(context.Background(), prog, core.Options{
			Grain: tc.grain, Overlap: true, Costs: core.DefaultCosts(),
		}, executive.Config{
			Workers: tc.workers, Manager: executive.ShardedManager,
			DequeCap: tc.deque, Batch: tc.batch,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkCopyChain(t, a, b, c)
		if rep.Exec.Manager != executive.ShardedManager {
			t.Errorf("%+v: report manager = %v", tc, rep.Exec.Manager)
		}
		if rep.Exec.Sched.Completions == 0 {
			t.Errorf("%+v: no completions recorded", tc)
		}
	}
}

// TestShardedReverseGather mirrors TestExecutiveReverseGather under the
// sharded manager: batched completions must never let a reverse-indirect
// gather run before both of its sources are written.
func TestShardedReverseGather(t *testing.T) {
	n := 512
	a := make([]int64, 2*n)
	d := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: 2 * n,
			Work: func(g granule.ID) { a[g] = int64(g) * 7 },
			Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{2 * r, 2*r + 1}
			}),
		},
		&core.Phase{
			Name: "gather", Granules: n,
			Work: func(g granule.ID) { d[g] = a[2*g] + a[2*g+1] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(context.Background(), prog, core.Options{
		Grain: 8, Overlap: true, Elevate: true, SubsetSize: 32,
		Costs: core.DefaultCosts(),
	}, executive.Config{Workers: 8, Manager: executive.ShardedManager, DequeCap: 4, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		want := int64(2*r)*7 + int64(2*r+1)*7
		if d[r] != want {
			t.Fatalf("d[%d] = %d, want %d", r, d[r], want)
		}
	}
}

// TestAsyncCorrectness runs the copy chain across ready-buffer extremes,
// including a buffer smaller than the worker count (workers contend for
// every slot) and a huge one (the whole program fits).
func TestAsyncCorrectness(t *testing.T) {
	cases := []struct{ workers, ready, low, batch, grain int }{
		{1, 1, 1, 1, 4},
		{4, 2, 1, 1, 4},
		{8, 16, 4, 8, 8},
		{12, 512, 128, 32, 2},
	}
	for _, tc := range cases {
		prog, a, b, c := buildCopyChain(t, 2048)
		rep, err := run(context.Background(), prog, core.Options{
			Grain: tc.grain, Overlap: true, Costs: core.DefaultCosts(),
		}, executive.Config{
			Workers: tc.workers, Manager: executive.AsyncManager,
			ReadyCap: tc.ready, LowWater: tc.low, Batch: tc.batch,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkCopyChain(t, a, b, c)
		if rep.Exec.Manager != executive.AsyncManager {
			t.Errorf("%+v: report manager = %v", tc, rep.Exec.Manager)
		}
		if rep.Exec.Sched.Completions == 0 {
			t.Errorf("%+v: no completions recorded", tc)
		}
	}
}

// TestAsyncDeferredOverlap: indirect mappings queue deferred management
// (composite-map builds, successor splitting); the async management
// goroutine must absorb all of it while keeping the gather correct.
func TestAsyncDeferredOverlap(t *testing.T) {
	n := 512
	a := make([]int64, 2*n)
	d := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: 2 * n,
			Work: func(g granule.ID) { a[g] = int64(g) * 7 },
			Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{2 * r, 2*r + 1}
			}),
		},
		&core.Phase{
			Name: "gather", Granules: n,
			Work: func(g granule.ID) { d[g] = a[2*g] + a[2*g+1] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(context.Background(), prog, core.Options{
		Grain: 8, Overlap: true, Elevate: true, SubsetSize: 32,
		Costs: core.DefaultCosts(),
	}, executive.Config{Workers: 8, Manager: executive.AsyncManager, ReadyCap: 8, LowWater: 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		want := int64(2*r)*7 + int64(2*r+1)*7
		if d[r] != want {
			t.Fatalf("d[%d] = %d, want %d", r, d[r], want)
		}
	}
	if rep.Exec.Sched.DeferredItems == 0 {
		t.Error("no deferred management was queued — the overlap path went unexercised")
	}
}

// TestAsyncNoSpareCore: with GOMAXPROCS(1) the management goroutine has
// no core of its own; the run must still complete correctly through the
// scheduler's preemption and the inline fallback.
func TestAsyncNoSpareCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog, a, b, c := buildCopyChain(t, 2048)
	if _, err := run(context.Background(), prog, core.Options{
		Grain: 2, Overlap: true, Costs: core.DefaultCosts(),
	}, executive.Config{Workers: 4, Manager: executive.AsyncManager, ReadyCap: 4, LowWater: 1, Batch: 2}); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
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
	results := make(map[executive.ManagerKind][]int64)
	for _, kind := range executive.ManagerKinds() {
		prog, counts, violations, out := buildBarrierProbe(t, phases, n)
		rep, err := run(context.Background(), prog, core.Options{
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
		if rep.Exec.Tasks == 0 {
			t.Fatalf("%v: no tasks executed", kind)
		}
		results[kind] = out
	}
	serial := results[executive.SerialManager]
	for kind, out := range results {
		if kind == executive.SerialManager {
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
	for _, kind := range executive.ManagerKinds() {
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
		if _, err := run(context.Background(), prog, core.Options{
			Grain: 8, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 8)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if v := violations.Load(); v != 0 {
			t.Fatalf("%v: %d granules crossed a Null barrier early", kind, v)
		}
	}
}

// TestManagerRace is the designated -race workout: >= 8 workers, small
// deques, batches and ready-buffers to force constant stealing, flushing
// and draining, run under every manager over every mapping kind that
// exercises a distinct release path.
func TestManagerRace(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
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
		if _, err := run(context.Background(), prog, core.Options{
			Grain: 4, Overlap: true, Elevate: true, Costs: core.DefaultCosts(),
		}, executive.Config{
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

func BenchmarkExecutiveOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 1 << 14
		dst := make([]float64, n)
		src := make([]float64, n)
		prog, _ := core.NewProgram(
			&core.Phase{
				Name: "fill", Granules: n,
				Work:   func(g granule.ID) { src[g] = float64(g) * 1.5 },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "scale", Granules: n,
				Work: func(g granule.ID) { dst[g] = src[g] * 2 },
			},
		)
		if _, err := run(context.Background(), prog, core.Options{Grain: 256, Overlap: true, Costs: core.DefaultCosts()},
			executive.Config{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
