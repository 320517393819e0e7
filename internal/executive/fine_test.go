package executive_test

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
)

// fineLedger is the exactly-once ledger behind a fineChain program.
type fineLedger struct {
	seen  [][]uint8
	early atomic.Int64 // granules that ran before the granule enabling them
}

// check verifies that every granule ran exactly once and none before its
// enabler.
func (l *fineLedger) check(tb testing.TB) {
	tb.Helper()
	for k := range l.seen {
		for g, n := range l.seen[k] {
			if n != 1 {
				tb.Fatalf("phase %d granule %d executed %d times", k, g, n)
			}
		}
	}
	if n := l.early.Load(); n != 0 {
		tb.Fatalf("%d granules ran before the granule that enables them", n)
	}
}

// fineChain is the exec-fine program of the repository's benchmark: an
// identity chain of phases × n granules whose work only marks a ledger,
// released through the enablement table — management is all the work.
func fineChain(tb testing.TB, phases, n int) (*core.Program, *fineLedger) {
	tb.Helper()
	l := &fineLedger{seen: make([][]uint8, phases)}
	specs := make([]*core.Phase, phases)
	for k := range specs {
		l.seen[k] = make([]uint8, n)
		mine := l.seen[k]
		work := func(g granule.ID) { mine[g]++ }
		if k > 0 {
			pred := l.seen[k-1]
			work = func(g granule.ID) {
				if pred[g] == 0 {
					l.early.Add(1)
				}
				mine[g]++
			}
		}
		specs[k] = &core.Phase{Name: "p" + strconv.Itoa(k), Granules: n, Work: work}
		if k < phases-1 {
			specs[k].Enable = enable.NewIdentity()
		}
	}
	prog, err := core.NewProgram(specs...)
	if err != nil {
		tb.Fatal(err)
	}
	return prog, l
}

func fineOptions(grain int) core.Options {
	return core.Options{Grain: grain, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
}

// BenchmarkSerialFineP1 is the run CHANGES.md profiles: the serial
// manager, one worker, grain 2 — every nanosecond is per-task fixed cost.
func BenchmarkSerialFineP1(b *testing.B) {
	prog, _ := fineChain(b, 3, 1<<15)
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
	prog, _ := fineChain(t, 3, 1<<15)
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
// goroutine.
func TestReportTimeAccounting(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		for _, p := range []int{1, 2, 4} {
			prog, ledger := fineChain(t, 3, 1<<12)
			run, err := run(context.Background(), prog, fineOptions(2), conformanceConfig(kind, p))
			if err != nil {
				t.Fatalf("%v P=%d: %v", kind, p, err)
			}
			rep := run.Exec
			ledger.check(t)
			if rep.Compute < 0 || rep.Mgmt < 0 || rep.Idle < 0 {
				t.Errorf("%v P=%d: negative share in %v", kind, p, rep)
			}
			capacity := p
			if kind == executive.AsyncManager {
				capacity++
			}
			sum := rep.Compute + rep.Mgmt + rep.Idle
			if limit := time.Duration(float64(capacity) * float64(rep.Wall) * 1.02); sum > limit {
				t.Errorf("%v P=%d: compute+mgmt+idle = %v exceeds %d × wall × 1.02 = %v (%v)",
					kind, p, sum, capacity, limit, rep)
			}
		}
	}
}
