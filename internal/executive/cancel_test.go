package executive_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/testutil"
)

// cancelBudget is the conformance suite's stall budget for cancellation:
// a cancelled run must return (workers exited, management goroutine
// joined) within this window. Generous for single-CPU CI hosts.
const cancelBudget = 10 * time.Second

// buildSlowChain builds the shared sleeping identity chain (see
// testutil.SleepChain).
func buildSlowChain(t *testing.T, phases, n int, d time.Duration) *core.Program {
	t.Helper()
	return testutil.SleepChain(t, phases, n, d)
}

// TestManagerConformanceCancel is the cancellation conformance check
// every manager must pass: cancelling a running fine-grain chain returns
// a ctx.Err()-wrapped error within the stall budget and leaks no
// goroutines — the cancel watcher, the workers, and any dedicated
// management goroutine are all joined before Run returns.
func TestManagerConformanceCancel(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			prog := buildSlowChain(t, 3, 256, time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())

			type outcome struct {
				rep *rundown.Report
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rep, err := run(ctx, prog, core.Options{
					Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
				}, conformanceConfig(kind, 8))
				done <- outcome{rep, err}
			}()

			time.Sleep(20 * time.Millisecond) // let the run get going
			cancel()

			select {
			case out := <-done:
				if !errors.Is(out.err, context.Canceled) {
					t.Fatalf("err = %v, want wrapped context.Canceled", out.err)
				}
				// The report of a failed run is partial: it carries the
				// job's failure, not a finished program.
				if out.rep != nil && !errors.Is(out.rep.Jobs[0].Err, context.Canceled) {
					t.Fatalf("cancelled run reported job error %v", out.rep.Jobs[0].Err)
				}
			case <-time.After(cancelBudget):
				buf := make([]byte, 1<<20)
				t.Fatalf("cancelled run did not return within %v\n%s",
					cancelBudget, buf[:runtime.Stack(buf, true)])
			}
			testutil.WaitGoroutines(t, before)
		})
	}
}

// TestManagerCancelBeforeStart: a context cancelled before the run
// begins must abort promptly under every manager, without waiting for
// the workload.
func TestManagerCancelBeforeStart(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		prog := buildSlowChain(t, 2, 64, 5*time.Millisecond)
		_, err := run(ctx, prog, core.Options{
			Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 4))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want wrapped context.Canceled", kind, err)
		}
		testutil.WaitGoroutines(t, before)
	}
}

// TestRunContextUncancelled pins that threading a live context through a
// run that completes normally changes nothing: correct results, no stray
// abort from the watcher teardown.
func TestRunContextUncancelled(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		prog, a, b, c := buildCopyChain(t, 512)
		ctx, cancel := context.WithCancel(context.Background())
		rep, err := run(ctx, prog, core.Options{
			Grain: 4, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 4))
		cancel()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rep.Tasks == 0 {
			t.Fatalf("%v: no tasks", kind)
		}
		checkCopyChain(t, a, b, c)
	}
}

// observed collects a run's observer stream.
type observed struct {
	mu    sync.Mutex
	snaps []rundown.Snapshot
}

func (o *observed) option() rundown.Option {
	return rundown.WithObserver(func(s rundown.Snapshot) {
		o.mu.Lock()
		o.snaps = append(o.snaps, s)
		o.mu.Unlock()
	})
}

func (o *observed) take() []rundown.Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]rundown.Snapshot(nil), o.snaps...)
}

// TestObserverFinalOnCancel: a mid-run cancel must still close the
// observer stream with exactly one Final snapshot, so stream consumers
// always see the run end.
func TestObserverFinalOnCancel(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		var obs observed
		ctx, cancel := context.WithCancel(context.Background())
		prog := buildSlowChain(t, 3, 256, time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := run(ctx, prog, core.Options{
				Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
			}, conformanceConfig(kind, 4), obs.option())
			done <- err
		}()
		time.Sleep(15 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: err = %v, want wrapped context.Canceled", kind, err)
			}
		case <-time.After(cancelBudget):
			t.Fatalf("%v: cancelled run did not return", kind)
		}
		got := obs.take()
		finals := 0
		for _, s := range got {
			if s.Final {
				finals++
			}
		}
		if len(got) == 0 || !got[len(got)-1].Final || finals != 1 {
			t.Fatalf("%v: cancelled run did not close the observer stream with one Final: %v", kind, got)
		}
	}
}

// TestExecutiveObserver checks the wall-clock sampler: snapshots arrive
// while the run is live (given a sufficiently long run), elapsed time is
// monotonic, and the closing snapshot is Final with the Report's totals.
func TestExecutiveObserver(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		var obs observed
		prog := buildSlowChain(t, 2, 128, time.Millisecond)
		rep, err := run(context.Background(), prog, core.Options{
			Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 4), obs.option(), rundown.WithObservePeriod(2*time.Millisecond))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got := obs.take()
		if len(got) == 0 {
			t.Fatalf("%v: no snapshots", kind)
		}
		last := got[len(got)-1]
		if !last.Final {
			t.Fatalf("%v: last snapshot not Final", kind)
		}
		if last.Tasks != rep.Tasks || last.Utilization != rep.Utilization {
			t.Errorf("%v: final snapshot tasks=%d utilization=%v, report tasks=%d utilization=%v",
				kind, last.Tasks, last.Utilization, rep.Tasks, rep.Utilization)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Elapsed < got[i-1].Elapsed {
				t.Errorf("%v: snapshot %d elapsed went backwards", kind, i)
			}
			if got[i].Tasks < got[i-1].Tasks {
				t.Errorf("%v: snapshot %d task count went backwards", kind, i)
			}
		}
	}
}
