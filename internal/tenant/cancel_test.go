package tenant

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// buildSleepChain builds the shared sleeping identity chain (see
// testutil.SleepChain).
func buildSleepChain(t *testing.T, phases, n int, d time.Duration) *core.Program {
	t.Helper()
	return testutil.SleepChain(t, phases, n, d)
}

// TestPoolAbortCancels is the pool-level cancellation check, run under
// every manager kind the pool can drive: aborting a pool with a
// ctx.Err()-wrapped error fails every active job with that error
// promptly, Close returns it, and teardown leaks no goroutines.
func TestPoolAbortCancels(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			pool, err := NewPool(Config{Workers: 4, Manager: kind})
			if err != nil {
				t.Fatal(err)
			}
			var handles []*Job
			for i := 0; i < 2; i++ {
				j, err := pool.Submit(buildSleepChain(t, 3, 128, time.Millisecond),
					core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()},
					JobConfig{Name: fmt.Sprintf("job%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, j)
			}
			time.Sleep(15 * time.Millisecond) // let both jobs get going

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			pool.Abort(fmt.Errorf("tenant: pool canceled: %w", ctx.Err()))

			waitDone := make(chan struct{})
			go func() {
				defer close(waitDone)
				for _, j := range handles {
					if _, err := j.Wait(); !errors.Is(err, context.Canceled) {
						t.Errorf("job %s err = %v, want wrapped context.Canceled", j.Name(), err)
					}
				}
			}()
			select {
			case <-waitDone:
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("aborted jobs did not finish promptly\n%s", buf[:runtime.Stack(buf, true)])
			}

			if _, err := pool.Close(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Close err = %v, want wrapped context.Canceled", err)
			}
			testutil.WaitGoroutines(t, before)
		})
	}
}

// TestPoolAbortSparesFinishedJobs: a job that completed before the abort
// keeps its nil error and its report.
func TestPoolAbortSparesFinishedJobs(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, Manager: executive.ShardedManager})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := pool.Submit(buildSleepChain(t, 1, 8, 0),
		core.Options{Grain: 1, Costs: core.DefaultCosts()}, JobConfig{Name: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quick.Wait(); err != nil {
		t.Fatalf("quick job failed before abort: %v", err)
	}
	slow, err := pool.Submit(buildSleepChain(t, 2, 256, time.Millisecond),
		core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{Name: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	pool.Abort(fmt.Errorf("canceled: %w", sentinel))
	if _, err := slow.Wait(); !errors.Is(err, sentinel) {
		t.Errorf("slow job err = %v, want wrapped sentinel", err)
	}
	// The finished job's result is untouched.
	if rep, err := quick.Wait(); err != nil || rep.Tasks == 0 {
		t.Errorf("finished job corrupted by abort: rep=%v err=%v", rep, err)
	}
	if _, err := pool.Close(); !errors.Is(err, sentinel) {
		t.Errorf("Close err = %v, want wrapped sentinel", err)
	}
}

// TestPoolAbortSparesCompletedUnretiredJobs: a job whose state machine
// has completed but which no worker sweep has retired yet must keep its
// results through an Abort — once the manager's state machine is done,
// Abort may never poison the job with the abort error. The job's manager
// is wrapped to hold that window open (holdingManager), so the abort lands
// in it on every run, under every manager.
func TestPoolAbortSparesCompletedUnretiredJobs(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			const workers = 2
			pool, err := NewPool(Config{Workers: workers, Manager: kind})
			if err != nil {
				t.Fatal(err)
			}
			var inner executive.Manager
			j := injectJob(t, pool, "fast", buildSleepChain(t, 2, 64, 0), func(sched *core.Scheduler) executive.Manager {
				if inner, err = executive.NewManager(sched, executive.Config{Workers: workers, Manager: kind}); err != nil {
					t.Fatal(err)
				}
				inner.SetNotify(pool.progress) // as newAttempt does; injectJob does not
				h := &holdingManager{Manager: inner}
				h.held.Store(true)
				return h
			})
			deadline := time.Now().Add(5 * time.Second)
			for {
				if done, _ := inner.Outcome(); done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("job never completed")
				}
				runtime.Gosched()
			}
			if s := j.State(); s != Running {
				t.Fatalf("job is %v before the abort, want it running: the window was not held", s)
			}
			pool.Abort(errors.New("boom"))
			if _, err := j.Wait(); err != nil {
				t.Fatalf("completed job poisoned by abort: %v", err)
			}
			if _, err := pool.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// holdingManager holds a job un-retired after its state machine completes:
// until the first Abort it reports the run unfinished with a task still in
// flight — the window between a job's last completion and the worker sweep
// that retires it, held open, with the pool's stall probe kept out of it.
type holdingManager struct {
	executive.Manager
	held atomic.Bool
}

func (h *holdingManager) Outcome() (bool, error) {
	if h.held.Load() {
		return false, nil
	}
	return h.Manager.Outcome()
}

func (h *holdingManager) InFlight() int {
	if h.held.Load() {
		return 1
	}
	return h.Manager.InFlight()
}

func (h *holdingManager) Abort(err error) {
	h.Manager.Abort(err)
	h.held.Store(false)
}

// TestPoolObserver checks the pool sampler: snapshots arrive while jobs
// run, counters are monotonic, and Close emits a Final snapshot carrying
// the report totals.
func TestPoolObserver(t *testing.T) {
	var mu sync.Mutex
	var snaps []telemetry.Snapshot
	pool, err := NewPool(Config{
		Workers: 4, Manager: executive.ShardedManager,
		Observer: func(s telemetry.Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		},
		ObservePeriod: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		j, err := pool.Submit(buildSleepChain(t, 2, 64, time.Millisecond),
			core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()},
			JobConfig{Name: fmt.Sprintf("job%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Done()
	}
	rep, err := pool.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Close stays idempotent with an observer configured: the second
	// Close must neither panic nor emit a second Final snapshot.
	if _, err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	mu.Lock()
	got := append([]telemetry.Snapshot(nil), snaps...)
	mu.Unlock()
	for i, s := range got[:len(got)-1] {
		if s.Final {
			t.Fatalf("snapshot %d of %d is Final; only the last may be", i, len(got))
		}
	}
	if len(got) == 0 {
		t.Fatal("no snapshots")
	}
	last := got[len(got)-1]
	if !last.Final {
		t.Fatal("last snapshot not Final")
	}
	if last.Tasks != rep.Tasks || last.Jobs != rep.Jobs || last.ActiveJobs != 0 || last.Queued != 0 {
		t.Errorf("final snapshot tasks=%d jobs=%d active=%d queued=%d, report tasks=%d jobs=%d",
			last.Tasks, last.Jobs, last.ActiveJobs, last.Queued, rep.Tasks, rep.Jobs)
	}
	if last.Elapsed != rep.Wall || last.Compute != rep.Compute || last.Mgmt != rep.Mgmt ||
		last.Idle != rep.Idle || last.Utilization != rep.Utilization {
		t.Errorf("final snapshot elapsed=%v compute=%v mgmt=%v idle=%v util=%v, report wall=%v compute=%v mgmt=%v idle=%v util=%v",
			last.Elapsed, last.Compute, last.Mgmt, last.Idle, last.Utilization,
			rep.Wall, rep.Compute, rep.Mgmt, rep.Idle, rep.Utilization)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Tasks < got[i-1].Tasks {
			t.Errorf("snapshot %d task count went backwards", i)
		}
	}
}
