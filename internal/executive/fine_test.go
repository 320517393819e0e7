package executive_test

import (
	"context"
	"io"
	"testing"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/testutil"
)

func fineOptions(grain int) core.Options {
	return core.Options{Grain: grain, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
}

// BenchmarkSerialFineP1 is the run CHANGES.md profiles: the serial
// manager, one worker, grain 2 — every nanosecond is per-task fixed cost.
func BenchmarkSerialFineP1(b *testing.B) {
	prog, _ := testutil.LedgerChain(b, 3, 1<<15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(context.Background(), prog, fineOptions(2), executive.Config{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSerialRunAllocations gates the per-task allocation diet end to end:
// a whole serial P=1 run of the 3×32 768 chain at grain 2 — 49 152 tasks —
// allocates a couple of hundred objects (the Runner, the pool, scheduler
// construction, the description slab), not one or more per task.
func TestSerialRunAllocations(t *testing.T) {
	prog, _ := testutil.LedgerChain(t, 3, 1<<15)
	got := testing.AllocsPerRun(2, func() {
		if _, err := run(context.Background(), prog, fineOptions(2), executive.Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 500 {
		t.Errorf("serial P=1 run allocated %v objects, want < 500", got)
	}
}

// TestReportTimeAccounting: a worker's life is partitioned by its clock
// chain into compute, management, idle (parked in the pool) and uncharged
// lock wait and sweeping, so on every manager the three totals a Run
// reports are non-negative and fit inside the machine: Compute + Mgmt +
// Idle <= capacity × Wall, Wall being the job's submit-to-retire window.
// The async manager's management goroutine is a processor of its own,
// outside Workers and the utilization denominator, so its capacity is P+1.
// The 2% allowance covers Start, which is management on the submitter's
// goroutine. Both sides of the worker loop's selection are pinned: the bare
// run, where compute is measured in stretches the managers close, and a
// flight-recorded one, where every task is stamped.
func TestReportTimeAccounting(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		for _, p := range []int{1, 2, 4} {
			for _, traced := range []bool{false, true} {
				var more []rundown.Option
				if traced {
					more = append(more, rundown.WithTrace(io.Discard))
				}
				prog, ledger := testutil.LedgerChain(t, 3, 1<<12)
				run, err := run(context.Background(), prog, fineOptions(2), conformanceConfig(kind, p), more...)
				if err != nil {
					t.Fatalf("%v P=%d traced=%v: %v", kind, p, traced, err)
				}
				rep := run.Exec
				ledger.Check(t)
				if rep.Compute <= 0 || rep.Mgmt < 0 || rep.Idle < 0 {
					t.Errorf("%v P=%d traced=%v: no compute or a negative share in %v", kind, p, traced, rep)
				}
				capacity := p
				if kind == executive.AsyncManager {
					capacity++
				}
				sum := rep.Compute + rep.Mgmt + rep.Idle
				if limit := time.Duration(float64(capacity) * float64(rep.Wall) * 1.02); sum > limit {
					t.Errorf("%v P=%d traced=%v: compute+mgmt+idle = %v exceeds %d × wall × 1.02 = %v (%v)",
						kind, p, traced, sum, capacity, limit, rep)
				}
			}
		}
	}
}
