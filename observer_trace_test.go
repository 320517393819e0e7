package rundown_test

// Observer and flight-recorder conformance across backends. The observer
// contract — every run closes its snapshot stream with exactly one Final
// snapshot, on every outcome — is asserted table-driven over all three
// backends crossed with success, cancellation, and a panicking Work
// function (the virtual backend never runs Work functions, so it skips
// the panic row). A separate test hammers the pool's concurrent trace
// recording; it is pinned by the race detector in CI's `go test -race`.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	rundown "repro"
)

// buildPanicJob is a job whose second phase panics partway through.
func buildPanicJob(t testing.TB, n int) rundown.Job {
	t.Helper()
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name: "ok", Granules: n,
			Work:   func(g rundown.GranuleID) {},
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "boom", Granules: n,
			Work: func(g rundown.GranuleID) {
				if g == rundown.GranuleID(n/2) {
					panic("synthetic work failure")
				}
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return rundown.Job{
		Prog: prog,
		Opt:  rundown.Options{Grain: 1, Overlap: true, Costs: rundown.DefaultCosts()},
	}
}

// TestObserverFinalConformance: every backend, every outcome, one Final
// snapshot closing the stream.
func TestObserverFinalConformance(t *testing.T) {
	backends := []struct {
		name string
		opts []rundown.Option
	}{
		{"goroutines", []rundown.Option{rundown.WithWorkers(4), rundown.WithManager(rundown.ShardedManager)}},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool()}},
		{"virtual", []rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{Procs: 4})}},
	}
	outcomes := []struct {
		name    string
		virtual bool // the virtual backend can exercise this outcome
		run     func(t *testing.T, r *rundown.Runner) error
	}{
		{"success", true, func(t *testing.T, r *rundown.Runner) error {
			prog, opt := traceChainFine(t, 256)
			_, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
			if err != nil {
				t.Fatalf("success run failed: %v", err)
			}
			return err
		}},
		{"cancel", true, func(t *testing.T, r *rundown.Runner) error {
			// A pre-cancelled context aborts deterministically on every
			// backend — no sleep-length race on slow hosts.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := r.Run(ctx, buildSleepJob(t, 3, 256, time.Millisecond))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			return err
		}},
		// The virtual backend prices schedules without running Work
		// functions, so a panicking Work body cannot occur there.
		{"panic", false, func(t *testing.T, r *rundown.Runner) error {
			_, err := r.Run(context.Background(), buildPanicJob(t, 128))
			if err == nil {
				t.Fatal("panicking job returned nil error")
			}
			return err
		}},
	}

	for _, b := range backends {
		for _, o := range outcomes {
			if b.name == "virtual" && !o.virtual {
				continue
			}
			t.Run(b.name+"/"+o.name, func(t *testing.T) {
				var mu sync.Mutex
				var snaps []rundown.Snapshot
				opts := append(append([]rundown.Option{}, b.opts...),
					rundown.WithObserver(func(s rundown.Snapshot) {
						mu.Lock()
						snaps = append(snaps, s)
						mu.Unlock()
					}),
					rundown.WithObservePeriod(time.Millisecond),
				)
				r, err := rundown.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				o.run(t, r)

				mu.Lock()
				defer mu.Unlock()
				if len(snaps) == 0 {
					t.Fatal("no snapshots emitted")
				}
				finals := 0
				for _, s := range snaps {
					if s.Final {
						finals++
					}
				}
				if finals != 1 {
					t.Errorf("%d Final snapshots, want exactly 1", finals)
				}
				last := snaps[len(snaps)-1]
				if !last.Final {
					t.Error("stream did not close with the Final snapshot")
				}
				if o.name == "success" && last.Jobs != 0 {
					t.Errorf("successful run's Final snapshot reports %d unfinished jobs, want 0", last.Jobs)
				}
			})
		}
	}
}

// observeRun runs jobs on a Runner built from opts plus a 1 ms observer and
// returns the snapshots with Elapsed in [from, to] (the Final one excluded).
func observeRun(t *testing.T, jobs []rundown.Job, from, to time.Duration, opts ...rundown.Option) []rundown.Snapshot {
	t.Helper()
	var mu sync.Mutex
	var in []rundown.Snapshot
	r, err := rundown.New(append(opts,
		rundown.WithObserver(func(s rundown.Snapshot) {
			if !s.Final && s.Elapsed >= from && s.Elapsed <= to {
				mu.Lock()
				in = append(in, s)
				mu.Unlock()
			}
		}),
		rundown.WithObservePeriod(time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(in) == 0 {
		t.Fatalf("no snapshot in [%v, %v]", from, to)
	}
	return in
}

// TestObserverJobsCountsBackoff: a job between attempts is unfinished, so
// every snapshot taken during its 200 ms backoff reads Jobs = 1. The first
// attempt fails on its second granule, so [50 ms, 150 ms] lies inside the
// backoff.
func TestObserverJobsCountsBackoff(t *testing.T) {
	prog, opt := traceChainFine(t, 64)
	job := rundown.Job{Prog: prog, Opt: opt, Retry: 1, Backoff: 200 * time.Millisecond}
	for _, s := range observeRun(t, []rundown.Job{job}, 50*time.Millisecond, 150*time.Millisecond,
		rundown.WithWorkers(2),
		rundown.WithFaults(rundown.FaultSpec{Rules: []rundown.FaultRule{
			{Kind: rundown.FaultGrainError, Job: 0, Phase: 0, Granule: 1, Worker: -1, Count: 1},
		}})) {
		if s.Jobs != 1 {
			t.Fatalf("snapshot at %v during the backoff reads Jobs = %d, want 1", s.Elapsed, s.Jobs)
		}
	}
}

// TestObserverJobsCountsQueued: a job waiting behind admission control is
// unfinished, so while the first of two slow jobs runs (two phases of 128
// one-millisecond granules on two workers: at least 128 ms) every snapshot
// reads Jobs = 2.
func TestObserverJobsCountsQueued(t *testing.T) {
	jobs := []rundown.Job{buildSleepJob(t, 2, 128, time.Millisecond), buildSleepJob(t, 2, 128, time.Millisecond)}
	for _, s := range observeRun(t, jobs, 20*time.Millisecond, 100*time.Millisecond,
		rundown.WithWorkers(2), rundown.WithAdmission(1, true)) {
		if s.Jobs != 2 {
			t.Fatalf("snapshot at %v while the second job waits reads Jobs = %d, want 2", s.Elapsed, s.Jobs)
		}
	}
}

// TestPoolTraceConcurrentRecording exercises the flight recorder's
// concurrent hot path — many workers appending to per-worker rings while
// pool-level events go through the shared Emit lock — and checks the
// merged stream is (Time, Seq)-ordered. CI runs this under -race.
func TestPoolTraceConcurrentRecording(t *testing.T) {
	const jobs = 4
	specs := make([]rundown.Job, jobs)
	var total int
	for i := range specs {
		prog, opt := traceChainFine(t, 512+128*i)
		specs[i] = rundown.Job{Prog: prog, Opt: opt}
		total += prog.TotalGranules()
	}
	r, err := rundown.New(
		rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
		rundown.WithTrace(nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil || tr.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(tr.Events); i++ {
		a, b := &tr.Events[i-1], &tr.Events[i]
		if a.Time > b.Time || (a.Time == b.Time && a.Seq > b.Seq) {
			t.Fatalf("merged trace out of order at %d: (%d,%d) before (%d,%d)",
				i, a.Time, a.Seq, b.Time, b.Seq)
		}
	}
	if got := tr.Granules(); got != int64(total) {
		t.Fatalf("concurrent trace completes %d granules, jobs total %d", got, total)
	}
}
