package tenant

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/workload"
)

// TestPoolOneJobDrySweepsAllocateNothing gates the pool's dry-sweep
// path: a one-job async run — where the workers outrun the management
// goroutine and sweep dry thousands of times — may allocate at most twice
// what the executive engine allocates for the same run. A slice per dry
// sweep (the backfill plan, the all-parked stall probe) once made that
// ratio 12 here, where AllocsPerRun pins GOMAXPROCS to 1, and several
// hundred with cores to spare. The program is the benchmark's exec-fine
// chain (3 × 32768 identity, counter-table enablement, overlap) at
// grain 8.
func TestPoolOneJobDrySweepsAllocateNothing(t *testing.T) {
	prog, err := workload.Chain(enable.Identity, 3, 1<<15, workload.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Grain: 8, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
	const workers = 4

	engine := testing.AllocsPerRun(3, func() {
		if _, err := executive.RunContext(context.Background(), prog, opt,
			executive.Config{Workers: workers, Manager: executive.AsyncManager}); err != nil {
			t.Fatal(err)
		}
	})
	pool := testing.AllocsPerRun(3, func() {
		p, err := NewPool(Config{Workers: workers, Manager: executive.AsyncManager})
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
	t.Logf("allocs per run: engine %.0f, one-job pool %.0f", engine, pool)
	if pool > 2*engine {
		t.Errorf("one-job async pool run allocates %.0f times, the engine %.0f: more than 2x", pool, engine)
	}
}
