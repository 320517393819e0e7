package executive

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
// management goroutine are all joined before RunContext returns.
func TestManagerConformanceCancel(t *testing.T) {
	for _, kind := range ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			prog := buildSlowChain(t, 3, 256, time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())

			type outcome struct {
				rep *Report
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rep, err := RunContext(ctx, prog, core.Options{
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
				if out.rep != nil {
					t.Fatalf("cancelled run returned a report: %v", out.rep)
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
	for _, kind := range ManagerKinds() {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		prog := buildSlowChain(t, 2, 64, 5*time.Millisecond)
		_, err := RunContext(ctx, prog, core.Options{
			Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
		}, conformanceConfig(kind, 4))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want wrapped context.Canceled", kind, err)
		}
		testutil.WaitGoroutines(t, before)
	}
}

// TestRunContextUncancelled pins that threading a live context through a
// run that completes normally changes nothing: same results as Run, no
// stray abort from the watcher teardown.
func TestRunContextUncancelled(t *testing.T) {
	for _, kind := range ManagerKinds() {
		prog, a, b, c := buildCopyChain(t, 512)
		ctx, cancel := context.WithCancel(context.Background())
		rep, err := RunContext(ctx, prog, core.Options{
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

// TestObserverFinalOnCancel: a mid-run cancel must still close the
// observer stream with a Final snapshot (with Done=false — the program
// did not complete), so stream consumers always see the run end.
func TestObserverFinalOnCancel(t *testing.T) {
	for _, kind := range ManagerKinds() {
		var mu sync.Mutex
		var snaps []Snapshot
		ctx, cancel := context.WithCancel(context.Background())
		cfg := conformanceConfig(kind, 4)
		cfg.Observer = func(s Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}
		prog := buildSlowChain(t, 3, 256, time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := RunContext(ctx, prog, core.Options{
				Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
			}, cfg)
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
		mu.Lock()
		got := append([]Snapshot(nil), snaps...)
		mu.Unlock()
		if len(got) == 0 || !got[len(got)-1].Final {
			t.Fatalf("%v: cancelled run did not close the observer stream with Final: %v", kind, got)
		}
		if got[len(got)-1].Done {
			t.Fatalf("%v: cancelled run's Final snapshot claims Done", kind)
		}
	}
}

func TestParseManager(t *testing.T) {
	cases := []struct {
		in   string
		want ManagerKind
	}{
		{"serial", SerialManager},
		{"SERIAL", SerialManager},
		{"Serial", SerialManager},
		{" sharded ", ShardedManager},
		{"SHARDED", ShardedManager},
		{"async", AsyncManager},
		{"ASYNC", AsyncManager},
	}
	for _, c := range cases {
		got, err := ParseManager(c.in)
		if err != nil {
			t.Errorf("ParseManager(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseManager(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	_, err := ParseManager("quantum")
	if err == nil {
		t.Fatal("ParseManager accepted an unknown manager")
	}
	for _, name := range ManagerNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseManager error %q does not enumerate %q", err, name)
		}
	}
}

// TestExecutiveObserver checks the wall-clock sampler: snapshots arrive
// while the run is live (given a sufficiently long run), elapsed time is
// monotonic, and the closing snapshot is Final with the Report's totals.
func TestExecutiveObserver(t *testing.T) {
	for _, kind := range ManagerKinds() {
		var mu sync.Mutex
		var snaps []Snapshot
		prog := buildSlowChain(t, 2, 128, time.Millisecond)
		cfg := conformanceConfig(kind, 4)
		cfg.Observer = func(s Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}
		cfg.ObservePeriod = 2 * time.Millisecond
		rep, err := Run(prog, core.Options{
			Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
		}, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		mu.Lock()
		got := append([]Snapshot(nil), snaps...)
		mu.Unlock()
		if len(got) == 0 {
			t.Fatalf("%v: no snapshots", kind)
		}
		last := got[len(got)-1]
		if !last.Final {
			t.Fatalf("%v: last snapshot not Final", kind)
		}
		if last.Tasks != rep.Tasks || last.Compute != rep.Compute {
			t.Errorf("%v: final snapshot tasks=%d compute=%v, report tasks=%d compute=%v",
				kind, last.Tasks, last.Compute, rep.Tasks, rep.Compute)
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
