package rundown_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	rundown "repro"
)

// gatherPhases is a two-phase reverse-indirect pair of n granules each over
// the given mapping function.
func gatherPhases(n int, requires func(rundown.GranuleID) []rundown.GranuleID) []*rundown.Phase {
	return []*rundown.Phase{
		{Name: "produce", Granules: n, Enable: rundown.Reverse(requires)},
		{Name: "gather", Granules: n},
	}
}

// TestMappingPanicIsSubmitError: a mapping function is user code, and a
// panic in it is the submitter's error — returned by NewProgram, Run and
// Submit on the goroutine that called them — never a dead pool worker. The
// second half is the case that used to kill the process: a function that
// survives one evaluation of each granule and panics on any other. It is
// evaluated once, at compilation, so the run cannot reach the panic.
func TestMappingPanicIsSubmitError(t *testing.T) {
	const n = 8192
	for _, kind := range []rundown.ExecManager{rundown.SerialManager, rundown.ShardedManager, rundown.AsyncManager} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			bad := func(r rundown.GranuleID) []rundown.GranuleID {
				if r == n/2 {
					panic("selection map read before it was generated")
				}
				return []rundown.GranuleID{r}
			}
			if _, err := rundown.NewProgram(gatherPhases(n, bad)...); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("NewProgram = %v, want the mapping function's panic as an error", err)
			}
			runner, err := rundown.New(rundown.WithWorkers(2), rundown.WithManager(kind))
			if err != nil {
				t.Fatal(err)
			}
			opt := rundown.Options{Grain: 16, Overlap: true, Elevate: true, SubsetSize: 256}
			unchecked := &rundown.Program{Phases: gatherPhases(n, bad)}
			if _, err := runner.Run(context.Background(), rundown.Job{Prog: unchecked, Opt: opt}); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("Run = %v, want the mapping function's panic as an error", err)
			}
			pool, err := runner.StartPool()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pool.Submit(unchecked, opt, rundown.PoolJobConfig{Name: "bad"}); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("Submit = %v, want the mapping function's panic as an error", err)
			}

			// Evaluated twice for any granule, this one panics; the pool
			// that refused the job above runs it, inline and deferred.
			evaluated := make([]atomic.Bool, n)
			once := func(r rundown.GranuleID) []rundown.GranuleID {
				if evaluated[r].Swap(true) {
					panic(fmt.Sprintf("mapping function evaluated again for granule %d", r))
				}
				return []rundown.GranuleID{r, (r*31 + 7) % n}
			}
			prog, err := rundown.NewProgram(gatherPhases(n, once)...)
			if err != nil {
				t.Fatal(err)
			}
			for _, inline := range []bool{true, false} {
				opt.InlineMaps = inline
				j, err := pool.Submit(prog, opt, rundown.PoolJobConfig{Name: "once"})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := j.Wait(); err != nil {
					t.Fatalf("inline=%v: %v", inline, err)
				}
			}
			if _, err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
