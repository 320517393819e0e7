// Package testutil holds the test helpers the cancellation, observer and
// fine-grain suites share across packages (root, internal/executive,
// internal/tenant): a sleeping-chain workload whose mid-run state is
// reachable even on a single-CPU CI host, the exec-fine chain over an
// exactly-once ledger, a reverse-indirect gather whose ledger holds across
// concurrent runs of the one program, and the goroutine-leak check with
// retries.
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

// GatherLedger is the ledger behind a GatherProgram. Its counts are
// atomic, so one program may run as several jobs at once.
type GatherLedger struct {
	produced, gathered []atomic.Int32
	early              atomic.Int64
}

// Check verifies that each of runs runs of the program ran every granule
// exactly once, and that no gather ran before the granules it requires.
func (l *GatherLedger) Check(tb testing.TB, runs int32) {
	tb.Helper()
	for k, seen := range [][]atomic.Int32{l.produced, l.gathered} {
		for g := range seen {
			if n := seen[g].Load(); n != runs {
				tb.Fatalf("phase %d granule %d executed %d times over %d runs", k, g, n, runs)
			}
		}
	}
	if n := l.early.Load(); n != 0 {
		tb.Fatalf("%d gathers ran before a granule they require", n)
	}
}

// GatherProgram is a two-phase reverse-indirect program — n producers, n
// gathers of fan producers each through a fixed selection map — over an
// exactly-once, enabler-first ledger that holds when the one program runs
// as several concurrent jobs: the k-th execution of a gather belongs to the
// k-th job to have enabled it, so each producer it requires must have run
// at least k times by then.
func GatherProgram(tb testing.TB, n, fan int) (*core.Program, *GatherLedger) {
	tb.Helper()
	l := &GatherLedger{
		produced: make([]atomic.Int32, n),
		gathered: make([]atomic.Int32, n),
	}
	imap := make([]granule.ID, n*fan)
	for i := range imap {
		imap[i] = granule.ID((i*7919 + i/fan) % n)
	}
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: n,
			Work:   func(g granule.ID) { l.produced[g].Add(1) },
			Enable: enable.NewReverseIMAP(imap, fan),
		},
		&core.Phase{
			Name: "gather", Granules: n,
			Work: func(g granule.ID) {
				k := l.gathered[g].Add(1)
				for _, p := range imap[int(g)*fan : (int(g)+1)*fan] {
					if l.produced[p].Load() < k {
						l.early.Add(1)
					}
				}
			},
		},
	)
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
