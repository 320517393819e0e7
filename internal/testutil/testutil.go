// Package testutil holds the test helpers the cancellation, observer and
// fine-grain suites share across packages (root, internal/executive,
// internal/tenant): a sleeping-chain workload whose mid-run state is
// reachable even on a single-CPU CI host, the exec-fine chain over an
// exactly-once ledger, and the goroutine-leak check with retries.
package testutil

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// SleepChain builds an identity chain of sleeping granules: long enough
// that a mid-run cancel lands while workers are busy and tasks sit in
// every manager's buffers, and sleep-based (not spinning) so the timing
// holds on a single-CPU host.
func SleepChain(tb testing.TB, phases, n int, d time.Duration) *core.Program {
	tb.Helper()
	specs := make([]*core.Phase, phases)
	for p := 0; p < phases; p++ {
		spec := &core.Phase{
			Name:     fmt.Sprintf("p%d", p),
			Granules: n,
			Work:     func(g granule.ID) { time.Sleep(d) },
		}
		if p < phases-1 {
			spec.Enable = enable.NewIdentity()
		}
		specs[p] = spec
	}
	prog, err := core.NewProgram(specs...)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// Ledger is the exactly-once, enabler-first ledger behind a LedgerChain
// program.
type Ledger struct {
	seen  [][]uint8
	early atomic.Int64 // granules that ran before the granule enabling them
}

// Check verifies that every granule ran exactly once and none before its
// enabler.
func (l *Ledger) Check(tb testing.TB) {
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

// LedgerChain is the exec-fine program of the repository's benchmark: an
// identity chain of phases × n granules whose work only marks a ledger,
// released through the enablement table — management is all the work.
func LedgerChain(tb testing.TB, phases, n int) (*core.Program, *Ledger) {
	tb.Helper()
	l := &Ledger{seen: make([][]uint8, phases)}
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
		specs[k] = &core.Phase{Name: fmt.Sprintf("p%d", k), Granules: n, Work: work}
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

// WaitGoroutines retries until the goroutine count falls back to the
// pre-test baseline, failing with a full stack dump if it never does
// within 5s. Retries absorb runtime-internal goroutines (timers, GC)
// winding down.
func WaitGoroutines(tb testing.TB, before int) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			tb.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
