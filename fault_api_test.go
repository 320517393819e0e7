package rundown_test

// Public-surface tests for the fault-injection and tenancy layer: the
// error-wrapping audit (every abort path wraps ctx.Err() AND names the
// failing job), and deadlines and retries through the Runner options.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestRunnerAbortNamesJob is the error-wrapping audit: cancel a running
// job on every manager and on the pool, and require the returned error to
// both wrap context.Canceled (errors.Is) and name the failing job, so a
// caller of a multi-job run can tell which tenant died without parsing
// backend internals.
func TestRunnerAbortNamesJob(t *testing.T) {
	cases := []struct {
		name string
		opts []rundown.Option
	}{
		{"goroutines-serial", []rundown.Option{rundown.WithWorkers(4)}},
		{"goroutines-sharded", []rundown.Option{rundown.WithWorkers(4), rundown.WithManager(rundown.ShardedManager)}},
		{"goroutines-async", []rundown.Option{rundown.WithWorkers(4), rundown.WithManager(rundown.AsyncManager)}},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r, err := rundown.New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			job := buildSleepJob(t, 3, 256, time.Millisecond)
			job.Name = "victim"
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := r.Run(ctx, job)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want wrapped context.Canceled", err)
				}
				if !strings.Contains(err.Error(), `"victim"`) {
					t.Fatalf("error does not name the failing job: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run did not return promptly")
			}
			waitGoroutineBaseline(t, before)
		})
	}
}

// TestRunnerDeadlineNamesJob drives a per-job deadline through each real
// backend's own enforcement point — the run context on the plain
// executive, the pool's deadline timer on the tenant pool — and requires
// the same contract from both: errors.Is(err, context.DeadlineExceeded)
// and the job's name in the message.
func TestRunnerDeadlineNamesJob(t *testing.T) {
	cases := []struct {
		name string
		opts []rundown.Option
	}{
		{"goroutines", []rundown.Option{rundown.WithWorkers(4), rundown.WithDeadline(15 * time.Millisecond)}},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool(), rundown.WithDeadline(15 * time.Millisecond)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r, err := rundown.New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			job := buildSleepJob(t, 2, 256, time.Millisecond)
			job.Name = "doomed"
			_, err = r.Run(context.Background(), job)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			if !strings.Contains(err.Error(), `"doomed"`) {
				t.Fatalf("error does not name the failing job: %v", err)
			}
			waitGoroutineBaseline(t, before)
		})
	}
}

// TestRunnerVirtualFaultRetry drives WithFaults plus Job.Retry through
// the virtual backend's public surface: a one-shot injected grain error
// costs job 0 one attempt, the retry recovers it, and the unified Report
// carries the fault and retry accounting.
func TestRunnerVirtualFaultRetry(t *testing.T) {
	r, err := rundown.New(
		rundown.WithVirtualTime(rundown.SimConfig{Procs: 4}),
		rundown.WithFaults(rundown.FaultSpec{Seed: 1, Rules: []rundown.FaultRule{
			{Kind: rundown.FaultGrainError, Job: 0, Phase: -1, Worker: -1, Count: 1},
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	j0, _ := buildRunnerJob(t, 1024)
	j0.Name = "wobbly"
	j0.Retry = 2
	j0.Backoff = 64
	j1, _ := buildRunnerJob(t, 1024)
	j1.Name = "steady"
	rep, err := r.RunAll(context.Background(), []rundown.Job{j0, j1})
	if err != nil {
		t.Fatalf("retry should have recovered the injected error: %v", err)
	}
	if rep.Faults == 0 {
		t.Error("Report.Faults = 0, want the injected firing counted")
	}
	if rep.Retries == 0 {
		t.Error("Report.Retries = 0, want the restart counted")
	}
	if got := rep.Jobs[0].Attempts; got != 2 {
		t.Errorf("job 0 attempts = %d, want 2", got)
	}
	if rep.Jobs[1].Err != nil || rep.Jobs[1].Attempts != 1 {
		t.Errorf("co-tenant was disturbed: err=%v attempts=%d",
			rep.Jobs[1].Err, rep.Jobs[1].Attempts)
	}
}

// TestRunnerVirtualDeadlineNamesJob pins the virtual half of the deadline
// contract through RunAll: the deadlined job alone fails, the run error
// wraps context.DeadlineExceeded and names it, and the co-tenant's result
// is untouched.
func TestRunnerVirtualDeadlineNamesJob(t *testing.T) {
	r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	j0, _ := buildRunnerJob(t, 1024)
	j0.Name = "doomed"
	j0.Deadline = time.Nanosecond // one virtual unit: certain to fire
	j1, _ := buildRunnerJob(t, 1024)
	j1.Name = "steady"
	rep, err := r.RunAll(context.Background(), []rundown.Job{j0, j1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), `"doomed"`) {
		t.Fatalf("error does not name the failing job: %v", err)
	}
	if rep == nil {
		t.Fatal("failed RunAll should still report per-job outcomes")
	}
	if !errors.Is(rep.Jobs[0].Err, context.DeadlineExceeded) {
		t.Errorf("job 0 err = %v, want wrapped context.DeadlineExceeded", rep.Jobs[0].Err)
	}
	if rep.Jobs[1].Err != nil {
		t.Errorf("co-tenant failed too: %v", rep.Jobs[1].Err)
	}
}

// TestRunnerVirtualRunHonoursDeadlineAndRetry: the virtual backend's Run
// is the one-job case of its RunAll, so Job.Deadline, Job.Retry and
// Job.Backoff bind it exactly as they bind RunAll — a deadlined chain
// fails with context.DeadlineExceeded instead of finishing late, and a
// one-shot injected grain error is retried instead of failing the run —
// and both doors report the same outcome and accounting.
func TestRunnerVirtualRunHonoursDeadlineAndRetry(t *testing.T) {
	chain := func(name string) rundown.Job {
		prog, err := rundown.Chain(rundown.KindIdentity, 3, 512, rundown.UnitCost(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return rundown.Job{Name: name, Prog: prog,
			Opt: rundown.Options{Grain: 8, Overlap: true, Costs: rundown.DefaultCosts()}}
	}
	cfg := rundown.SimConfig{Procs: 8, Mgmt: rundown.Dedicated}
	// both runs job through Run and through RunAll on fresh runners.
	both := func(job rundown.Job, opts ...rundown.Option) (one, all *rundown.Report, oneErr, allErr error) {
		opts = append(opts, rundown.WithVirtualTime(cfg))
		for i, run := range []func(*rundown.Runner) (*rundown.Report, error){
			func(r *rundown.Runner) (*rundown.Report, error) { return r.Run(context.Background(), job) },
			func(r *rundown.Runner) (*rundown.Report, error) {
				return r.RunAll(context.Background(), []rundown.Job{job})
			},
		} {
			r, err := rundown.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(r)
			if i == 0 {
				one, oneErr = rep, err
			} else {
				all, allErr = rep, err
			}
		}
		return
	}

	late := chain("late")
	late.Deadline = 1000 * time.Nanosecond // the chain needs more than 1000 virtual units
	one, all, oneErr, allErr := both(late)
	for who, err := range map[string]error{"Run": oneErr, "RunAll": allErr} {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want wrapped context.DeadlineExceeded", who, err)
		}
		if !strings.Contains(err.Error(), `rundown: job "late"`) {
			t.Errorf("%s: error does not name the job: %v", who, err)
		}
	}
	if one == nil || all == nil {
		t.Fatal("a deadline miss should still report the job's outcome")
	}
	if one.Makespan != all.Makespan || one.Jobs[0].DeadlineMargin != all.Jobs[0].DeadlineMargin ||
		!one.Jobs[0].HasDeadline {
		t.Errorf("deadline miss: Run reports makespan %d margin %v, RunAll %d %v",
			one.Makespan, one.Jobs[0].DeadlineMargin, all.Makespan, all.Jobs[0].DeadlineMargin)
	}

	wobbly := chain("wobbly")
	wobbly.Retry = 2
	wobbly.Backoff = 64
	one, all, oneErr, allErr = both(wobbly, rundown.WithFaults(rundown.FaultSpec{Seed: 1, Rules: []rundown.FaultRule{
		{Kind: rundown.FaultGrainError, Job: 0, Phase: -1, Worker: -1, Count: 1},
	}}))
	if oneErr != nil || allErr != nil {
		t.Fatalf("the retry should have recovered the injected error: Run %v, RunAll %v", oneErr, allErr)
	}
	if one.Sim == nil || one.SimMulti != nil || all.Sim != nil || all.SimMulti == nil {
		t.Errorf("Run should report Sim and RunAll SimMulti: Run %v/%v, RunAll %v/%v",
			one.Sim != nil, one.SimMulti != nil, all.Sim != nil, all.SimMulti != nil)
	}
	if one.Faults != 1 || one.Retries != 1 || one.Jobs[0].Attempts != 2 {
		t.Errorf("Run: faults=%d retries=%d attempts=%d, want 1 1 2",
			one.Faults, one.Retries, one.Jobs[0].Attempts)
	}
	if one.Makespan != all.Makespan || one.Tasks != all.Tasks || one.Faults != all.Faults ||
		one.Retries != all.Retries || one.Jobs[0].Attempts != all.Jobs[0].Attempts {
		t.Errorf("Run and RunAll disagree on the retried job:\n Run    %v faults=%d retries=%d\n RunAll %v faults=%d retries=%d",
			one, one.Faults, one.Retries, all, all.Faults, all.Retries)
	}
}

// TestRunnerPoolSentinels exercises the re-exported tenancy sentinels
// through the public pool lifecycle: Submit after Close wraps
// ErrPoolClosed, and a second Close returns the first Close's outcome.
func TestRunnerPoolSentinels(t *testing.T) {
	r, err := rundown.New(rundown.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := r.StartPool()
	if err != nil {
		t.Fatal(err)
	}
	job := buildSleepJob(t, 1, 8, 0)
	if _, err := pool.Submit(job.Prog, job.Opt, rundown.PoolJobConfig{Name: "early"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = pool.Submit(job.Prog, job.Opt, rundown.PoolJobConfig{Name: "tardy"})
	if !errors.Is(err, rundown.ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want wrapped ErrPoolClosed", err)
	}
	if !strings.Contains(err.Error(), `"tardy"`) {
		t.Fatalf("sentinel wrap does not name the job: %v", err)
	}
	if _, err := pool.Close(); err != nil {
		t.Fatalf("second Close = %v, want the first outcome (nil)", err)
	}
}

// TestRunnerExecRunHonoursRetry: a retry budget binds Run on the
// goroutine backend, whatever its label and manager, as it binds RunAll
// and the virtual machine: every goroutine Run is a one-job pool run, and
// the pool has attempts.
func TestRunnerExecRunHonoursRetry(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []rundown.Option
	}{
		{"default", nil},
		{"pool", []rundown.Option{rundown.WithPool()}},
		{"sharded", []rundown.Option{rundown.WithManager(rundown.ShardedManager)}},
		{"async", []rundown.Option{rundown.WithManager(rundown.AsyncManager)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := rundown.Chain(rundown.KindIdentity, 3, 512, rundown.UnitCost(), 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := rundown.New(append(c.opts,
				rundown.WithWorkers(4),
				rundown.WithRetry(2, 0),
				rundown.WithFaults(rundown.FaultSpec{Rules: []rundown.FaultRule{
					{Kind: rundown.FaultGrainError, Job: -1, Phase: 1, Granule: 7, Worker: -1},
				}}),
			)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.Run(context.Background(), rundown.Job{Prog: prog,
				Opt: rundown.Options{Grain: 4, Overlap: true, Costs: rundown.DefaultCosts()}})
			if err != nil {
				t.Fatalf("the retry should have recovered the injected error: %v", err)
			}
			if rep.Backend != r.Backend() {
				t.Errorf("report backend = %v, want the Runner's, %v", rep.Backend, r.Backend())
			}
			if len(rep.Jobs) != 1 || rep.Jobs[0].Attempts != 2 || rep.Retries != 1 {
				t.Errorf("jobs=%+v retries=%d, want one job with 2 attempts and 1 retry", rep.Jobs, rep.Retries)
			}
		})
	}
}
