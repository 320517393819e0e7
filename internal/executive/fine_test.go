package executive

import (
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
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
		if _, err := Run(prog, fineOptions(2), Config{Workers: 1, Manager: SerialManager}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSerialRunAllocations gates the per-task allocation diet end to end:
// a whole serial P=1 run of the 3×32 768 chain at grain 2 — 49 152 tasks —
// allocates a few hundred objects (scheduler construction, the
// description slab, the metric registry), not one or more per task.
func TestSerialRunAllocations(t *testing.T) {
	prog, _ := fineChain(t, 3, 1<<15)
	got := testing.AllocsPerRun(2, func() {
		if _, err := Run(prog, fineOptions(2), Config{Workers: 1, Manager: SerialManager}); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 500 {
		t.Errorf("serial P=1 run allocated %v objects, want < 500", got)
	}
}
