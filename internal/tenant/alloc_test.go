package tenant

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/workload"
)

// TestPoolOneJobDrySweepsAllocateNothing gates the pool's per-task paths on
// the benchmark's exec-fine chain (3 × 32768 identity, counter-table
// enablement, overlap) at grain 8 — 12 288 tasks — where AllocsPerRun pins
// GOMAXPROCS to 1. A whole one-job run allocates about a hundred objects
// (the pool, the scheduler, the manager); the cap leaves that fixed cost
// room to double and no room for anything per task or per sweep.
//
// The dry-sweep path: a one-job async run, where the workers outrun the
// management goroutine and sweep dry thousands of times. A slice per dry
// sweep (the backfill plan, the all-parked stall probe) once made such a
// run allocate 1 700 times, and tens of thousands with cores to spare.
//
// The fused home path: a one-job serial run, where every task after the
// first comes back from the Enter that completed its predecessor.
//
// The backfill path: two async jobs, where every dry sweep goes past the
// home job into the policy walk — copied into the worker's own buffer, so
// the run costs the second job's fixed hundred and nothing per sweep. (A
// plan slice and a sort closure per dry sweep made it about 30 000.)
func TestPoolOneJobDrySweepsAllocateNothing(t *testing.T) {
	prog, err := workload.Chain(enable.Identity, 3, 1<<15, workload.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Grain: 8, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
	const workers, maxAllocs = 4, 250

	for _, row := range []struct {
		kind executive.ManagerKind
		jobs int
	}{{executive.AsyncManager, 1}, {executive.SerialManager, 1}, {executive.AsyncManager, 2}} {
		got := testing.AllocsPerRun(3, func() {
			p, err := NewPool(Config{Workers: workers, Manager: row.kind})
			if err != nil {
				t.Fatal(err)
			}
			var jobs []*Job
			for i := 0; i < row.jobs; i++ {
				j, err := p.Submit(prog, opt, JobConfig{})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			for _, j := range jobs {
				if _, err := j.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v, %d job(s): %.0f allocations per run", row.kind, row.jobs, got)
		if got > float64(maxAllocs*row.jobs) {
			t.Errorf("%d-job %v pool run allocates %.0f times, want at most %d", row.jobs, row.kind, got, maxAllocs*row.jobs)
		}
	}
}
