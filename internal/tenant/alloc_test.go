package tenant

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/workload"
)

// TestPoolOneJobDrySweepsAllocateNothing gates the pool's per-task paths
// against the executive engine running the same program — the benchmark's
// exec-fine chain (3 × 32768 identity, counter-table enablement, overlap)
// at grain 8, 12 288 tasks — where AllocsPerRun pins GOMAXPROCS to 1.
//
// The dry-sweep path: a one-job async run, where the workers outrun the
// management goroutine and sweep dry thousands of times, may allocate at
// most twice what the engine allocates. A slice per dry sweep (the
// backfill plan, the all-parked stall probe) once made that ratio 12, and
// several hundred with cores to spare.
//
// The fused home path: a one-job serial run, where every task after the
// first comes back from the Enter that completed its predecessor, may
// allocate no more than the engine plus the pool's fixed setup — nothing
// per task.
func TestPoolOneJobDrySweepsAllocateNothing(t *testing.T) {
	prog, err := workload.Chain(enable.Identity, 3, 1<<15, workload.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Grain: 8, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
	const workers = 4
	const tasks = 3 * (1 << 15) / 8

	measure := func(kind executive.ManagerKind) (engine, pool float64) {
		engine = testing.AllocsPerRun(3, func() {
			if _, err := executive.RunContext(context.Background(), prog, opt,
				executive.Config{Workers: workers, Manager: kind}); err != nil {
				t.Fatal(err)
			}
		})
		pool = testing.AllocsPerRun(3, func() {
			p, err := NewPool(Config{Workers: workers, Manager: kind})
			if err != nil {
				t.Fatal(err)
			}
			j, err := p.Submit(prog, opt, JobConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: allocs per run: engine %.0f, one-job pool %.0f", kind, engine, pool)
		return engine, pool
	}
	if engine, pool := measure(executive.AsyncManager); pool > 2*engine {
		t.Errorf("one-job async pool run allocates %.0f times, the engine %.0f: more than 2x", pool, engine)
	}
	if engine, pool := measure(executive.SerialManager); pool-engine > tasks/100 {
		t.Errorf("one-job serial pool run allocates %.0f times, the engine %.0f: the difference is not a fixed cost over %d tasks",
			pool, engine, tasks)
	}
}
