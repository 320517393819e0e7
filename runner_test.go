package rundown_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rundown "repro"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// buildRunnerJob builds a two-phase identity job whose Work writes
// verifiable results (real backends) and whose costs are deterministic
// (virtual backend) — one spec for every machine.
func buildRunnerJob(t testing.TB, n int) (rundown.Job, []float64) {
	t.Helper()
	src := make([]float64, n)
	dst := make([]float64, n)
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name: "produce", Granules: n,
			Work:   func(g rundown.GranuleID) { src[g] = float64(g) * 0.5 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "consume", Granules: n,
			Work: func(g rundown.GranuleID) { dst[g] = src[g] + 1 },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return rundown.Job{
		Name: "probe",
		Prog: prog,
		Opt:  rundown.Options{Grain: 16, Overlap: true, Costs: rundown.DefaultCosts()},
	}, dst
}

func checkRunnerJob(t *testing.T, dst []float64) {
	t.Helper()
	for i := range dst {
		if dst[i] != float64(i)*0.5+1 {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], float64(i)*0.5+1)
		}
	}
}

// runVirtual runs prog as one job on a virtual Runner and returns the
// single-program detail of its Report.
func runVirtual(t testing.TB, prog *rundown.Program, opt rundown.Options, cfg rundown.SimConfig) *rundown.SimResult {
	t.Helper()
	r, err := rundown.New(rundown.WithVirtualTime(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Sim
}

// runExec runs prog as one job on goroutine workers and returns the
// execution detail of its Report.
func runExec(t testing.TB, prog *rundown.Program, opt rundown.Options, opts ...rundown.Option) *rundown.ExecReport {
	t.Helper()
	r, err := rundown.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Exec
}

// TestRunnerThreeBackends is the tentpole acceptance check: one
// Runner.Run call executes the same Job spec on the virtual sim, the
// goroutine executive, and the tenant pool, selected purely by options.
func TestRunnerThreeBackends(t *testing.T) {
	cases := []struct {
		name string
		opts []rundown.Option
		want rundown.BackendKind
		real bool // Work functions execute
	}{
		{"virtual", []rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{})}, rundown.VirtualBackend, false},
		{"goroutines", []rundown.Option{rundown.WithWorkers(4)}, rundown.ExecBackend, true},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool()}, rundown.PoolBackend, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			job, dst := buildRunnerJob(t, 1024)
			r, err := rundown.New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if r.Backend() != c.want {
				t.Fatalf("Backend() = %v, want %v", r.Backend(), c.want)
			}
			rep, err := r.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Backend != c.want {
				t.Errorf("report backend = %v, want %v", rep.Backend, c.want)
			}
			if rep.Tasks == 0 {
				t.Error("no tasks in report")
			}
			if rep.Workers != 4 {
				t.Errorf("workers = %d, want 4", rep.Workers)
			}
			if c.real {
				checkRunnerJob(t, dst)
				if rep.Wall <= 0 {
					t.Error("real backend reported no wall time")
				}
			} else {
				if rep.Makespan <= 0 {
					t.Error("virtual backend reported no makespan")
				}
				if rep.Sim == nil {
					t.Error("virtual report missing Sim detail")
				}
			}
		})
	}
}

// TestRunnerManagerSweep runs the same job through Run under every
// manager kind on the goroutine backend — the options-only analogue of
// the executive conformance suite's entry.
func TestRunnerManagerSweep(t *testing.T) {
	for _, kind := range []rundown.ExecManager{rundown.SerialManager, rundown.ShardedManager, rundown.AsyncManager} {
		job, dst := buildRunnerJob(t, 1024)
		r, err := rundown.New(rundown.WithWorkers(4), rundown.WithManager(kind))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rep.Exec == nil || rep.Exec.Manager != kind {
			t.Fatalf("%v: exec report missing or wrong manager: %+v", kind, rep.Exec)
		}
		checkRunnerJob(t, dst)
	}
}

// TestRunnerRunAllVirtualDeterministic: two RunAlls of the same jobs on
// the virtual backend report the same run, with a per-job report each.
func TestRunnerRunAllVirtualDeterministic(t *testing.T) {
	run := func() *rundown.Report {
		j1, _ := buildRunnerJob(t, 512)
		j2, _ := buildRunnerJob(t, 256)
		j1.Name, j2.Name = "a", "b"
		j2.Priority = 1
		r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 8, Mgmt: rundown.ShardedMgmt}))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.RunAll(context.Background(), []rundown.Job{j1, j2})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.SimMulti.Makespan != b.SimMulti.Makespan || a.SimMulti.ComputeUnits != b.SimMulti.ComputeUnits {
		t.Fatalf("first run makespan=%d compute=%d, second makespan=%d compute=%d",
			a.SimMulti.Makespan, a.SimMulti.ComputeUnits, b.SimMulti.Makespan, b.SimMulti.ComputeUnits)
	}
	if len(a.Jobs) != 2 || a.Jobs[0].Sim == nil || a.Jobs[1].Sim == nil {
		t.Fatalf("per-job reports missing: %+v", a.Jobs)
	}
}

// TestRunnerAcceptsEveryNamedModelAndManager is what the capability
// table used to promise, checked where the input arrives: every
// MgmtModelNames entry prices a RunAll and a Run on the virtual backend,
// every ExecManagerNames entry drives a RunAll on the pool, and a value
// outside either list fails the run — the model with ErrUnsupportedMgmt.
func TestRunnerAcceptsEveryNamedModelAndManager(t *testing.T) {
	ctx := context.Background()
	for _, name := range rundown.MgmtModelNames() {
		model, err := rundown.ParseMgmtModel(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 4, Mgmt: model}))
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := buildRunnerJob(t, 64)
		j2, _ := buildRunnerJob(t, 64)
		if _, err := r.RunAll(ctx, []rundown.Job{j1, j2}); err != nil {
			t.Errorf("%s: RunAll: %v", name, err)
		}
		j3, _ := buildRunnerJob(t, 64)
		if _, err := r.Run(ctx, j3); err != nil {
			t.Errorf("%s: Run: %v", name, err)
		}
	}
	for _, name := range rundown.ExecManagerNames() {
		kind, err := rundown.ParseExecManager(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rundown.New(rundown.WithWorkers(4), rundown.WithManager(kind))
		if err != nil {
			t.Fatal(err)
		}
		j1, d1 := buildRunnerJob(t, 256)
		j2, d2 := buildRunnerJob(t, 256)
		rep, err := r.RunAll(ctx, []rundown.Job{j1, j2})
		if err != nil {
			t.Fatalf("%s: RunAll: %v", name, err)
		}
		if rep.Backend != r.Backend() || rep.Pool == nil {
			t.Errorf("%s: RunAll report backend = %v, pool = %v", name, rep.Backend, rep.Pool)
		}
		checkRunnerJob(t, d1)
		checkRunnerJob(t, d2)
	}

	job, _ := buildRunnerJob(t, 64)
	r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 4, Mgmt: rundown.MgmtModel(250)}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, job); !errors.Is(err, rundown.ErrUnsupportedMgmt) {
		t.Errorf("Run under MgmtModel(250) = %v, want wrapped ErrUnsupportedMgmt", err)
	}
	if _, err := r.RunAll(ctx, []rundown.Job{job, job}); !errors.Is(err, rundown.ErrUnsupportedMgmt) {
		t.Errorf("RunAll under MgmtModel(250) = %v, want wrapped ErrUnsupportedMgmt", err)
	}
	r, err = rundown.New(rundown.WithWorkers(2), rundown.WithManager(rundown.ExecManager(250)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, job); err == nil || !strings.Contains(err.Error(), "unknown manager") {
		t.Errorf("Run under ExecManager(250) = %v, want an unknown-manager error", err)
	}
	if _, err := r.RunAll(ctx, []rundown.Job{job, job}); err == nil || !strings.Contains(err.Error(), "unknown manager") {
		t.Errorf("RunAll under ExecManager(250) = %v, want an unknown-manager error", err)
	}
}

// buildSleepJob wraps the shared sleeping identity chain
// (testutil.SleepChain) in a Job spec, so a cancel lands mid-run even
// on a single-CPU host.
func buildSleepJob(t testing.TB, phases, n int, d time.Duration) rundown.Job {
	t.Helper()
	return rundown.Job{
		Prog: testutil.SleepChain(t, phases, n, d),
		Opt:  rundown.Options{Grain: 1, Overlap: true, Costs: rundown.DefaultCosts()},
	}
}

func waitGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
	testutil.WaitGoroutines(t, before)
}

// TestRunnerCancellation cancels a running job on each real backend and
// a virtual run, asserting a prompt ctx.Err()-wrapped return and zero
// leaked goroutines.
func TestRunnerCancellation(t *testing.T) {
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
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := r.Run(ctx, buildSleepJob(t, 3, 256, time.Millisecond))
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want wrapped context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run did not return promptly")
			}
			waitGoroutineBaseline(t, before)
		})
	}

	// A context cancelled before RunAll is even called returns
	// deterministically at entry — no pool is spun up, no jobs run, and
	// the error wraps ctx.Err() even for jobs fast enough to finish
	// before a watcher goroutine would be scheduled.
	t.Run("pool-precancelled", func(t *testing.T) {
		before := runtime.NumGoroutine()
		r, err := rundown.New(rundown.WithWorkers(4), rundown.WithPool())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = r.RunAll(ctx, []rundown.Job{
			buildSleepJob(t, 1, 2, 0), // fast enough to outrun a watcher
			buildSleepJob(t, 1, 2, 0),
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		waitGoroutineBaseline(t, before)
	})

	t.Run("virtual", func(t *testing.T) {
		r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 8}))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		job, _ := buildRunnerJob(t, 8192)
		job.Opt.Grain = 1
		if _, err := r.Run(ctx, job); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	})

	t.Run("pool-runall", func(t *testing.T) {
		before := runtime.NumGoroutine()
		r, err := rundown.New(rundown.WithWorkers(4), rundown.WithManager(rundown.ShardedManager))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		type res struct {
			rep *rundown.Report
			err error
		}
		done := make(chan res, 1)
		go func() {
			rep, err := r.RunAll(ctx, []rundown.Job{
				buildSleepJob(t, 3, 256, time.Millisecond),
				buildSleepJob(t, 3, 256, time.Millisecond),
			})
			done <- res{rep, err}
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case out := <-done:
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", out.err)
			}
			if out.rep == nil || len(out.rep.Jobs) != 2 {
				t.Fatalf("cancelled RunAll should still report per-job outcomes: %+v", out.rep)
			}
			for _, j := range out.rep.Jobs {
				if !errors.Is(j.Err, context.Canceled) {
					t.Errorf("job %s err = %v, want wrapped context.Canceled", j.Name, j.Err)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled RunAll did not return promptly")
		}
		waitGoroutineBaseline(t, before)
	})
}

// TestRunnerObserver checks the unified observer across backends: every
// snapshot carries the right backend kind, and the stream closes with a
// Final snapshot.
func TestRunnerObserver(t *testing.T) {
	collect := func(opts ...rundown.Option) []rundown.Snapshot {
		var mu sync.Mutex
		var snaps []rundown.Snapshot
		opts = append(opts, rundown.WithObserver(func(s rundown.Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}), rundown.WithObservePeriod(2*time.Millisecond))
		r, err := rundown.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background(), buildSleepJob(t, 2, 64, time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]rundown.Snapshot(nil), snaps...)
	}

	for _, c := range []struct {
		name string
		opts []rundown.Option
		want rundown.BackendKind
	}{
		{"goroutines", []rundown.Option{rundown.WithWorkers(4)}, rundown.ExecBackend},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool()}, rundown.PoolBackend},
		{"virtual", []rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{})}, rundown.VirtualBackend},
	} {
		t.Run(c.name, func(t *testing.T) {
			snaps := collect(c.opts...)
			if len(snaps) == 0 {
				t.Fatal("no snapshots")
			}
			for i, s := range snaps {
				if s.Backend != c.want {
					t.Fatalf("snapshot %d backend = %v, want %v", i, s.Backend, c.want)
				}
			}
			if !snaps[len(snaps)-1].Final {
				t.Error("stream did not close with a Final snapshot")
			}
		})
	}
}

// TestRunnerStartPool covers the incremental pool lifecycle behind the
// front door, and the virtual Runner's refusal to start one.
func TestRunnerStartPool(t *testing.T) {
	r, err := rundown.New(rundown.WithWorkers(4), rundown.WithManager(rundown.ShardedManager))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := r.StartPool()
	if err != nil {
		t.Fatal(err)
	}
	job, dst := buildRunnerJob(t, 512)
	h, err := pool.Submit(job.Prog, job.Opt, rundown.PoolJobConfig{Name: "one"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	checkRunnerJob(t, dst)

	vr, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr.StartPool(); err == nil {
		t.Fatal("virtual Runner started a goroutine pool")
	}
}

// TestRunnerOptionConflicts: incompatible options fail at New, in either
// order.
func TestRunnerOptionConflicts(t *testing.T) {
	if _, err := rundown.New(rundown.WithPool(), rundown.WithVirtualTime(rundown.SimConfig{Procs: 2})); err == nil {
		t.Error("WithPool then WithVirtualTime accepted")
	}
	if _, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 2}), rundown.WithPool()); err == nil {
		t.Error("WithVirtualTime then WithPool accepted")
	}
}

// TestRunnerManagerDrivesVirtualModel: the manager option retargets the
// virtual model, so one option set moves between machines.
func TestRunnerManagerDrivesVirtualModel(t *testing.T) {
	cases := []struct {
		opts []rundown.Option
		want rundown.MgmtModel
	}{
		{[]rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{})}, rundown.StealsWorker},
		{[]rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{Mgmt: rundown.Dedicated})}, rundown.Dedicated},
		{[]rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{}), rundown.WithManager(rundown.ShardedManager)}, rundown.ShardedMgmt},
		{[]rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{}), rundown.WithManager(rundown.ShardedManager), rundown.WithAdaptiveBatching(0)}, rundown.AdaptiveMgmt},
		{[]rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{}), rundown.WithManager(rundown.AsyncManager)}, rundown.AsyncMgmt},
		// Explicit model in SimConfig honored when no manager option given.
		{[]rundown.Option{rundown.WithWorkers(4), rundown.WithVirtualTime(rundown.SimConfig{Mgmt: rundown.AdaptiveMgmt})}, rundown.AdaptiveMgmt},
	}
	for i, c := range cases {
		r, err := rundown.New(c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		job, _ := buildRunnerJob(t, 128)
		rep, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep.Model != c.want {
			t.Errorf("case %d: model = %v, want %v", i, rep.Model, c.want)
		}
	}
}

// oneJobCorpus is three program shapes over a ledger that counts every
// granule's executions and every granule that ran before one enabling it:
// a barrier chain (no overlap), an identity chain with overlap, and a
// reverse-indirect gather with elevation.
func oneJobCorpus(t *testing.T) map[string]func() (rundown.Job, func()) {
	t.Helper()
	build := func(opt rundown.Options, gather bool) func() (rundown.Job, func()) {
		return func() (rundown.Job, func()) {
			const n = 512
			m := n
			if gather {
				m = n / 2
			}
			seen := [2][]atomic.Int32{make([]atomic.Int32, n), make([]atomic.Int32, m)}
			var early atomic.Int64
			first := &rundown.Phase{Name: "produce", Granules: n, Enable: rundown.Identity(),
				Work: func(g rundown.GranuleID) { seen[0][g].Add(1) }}
			second := &rundown.Phase{Name: "consume", Granules: m,
				Work: func(g rundown.GranuleID) {
					needs := []rundown.GranuleID{g}
					if gather {
						needs = []rundown.GranuleID{2 * g, 2*g + 1}
					}
					for _, p := range needs {
						if seen[0][p].Load() == 0 {
							early.Add(1)
						}
					}
					seen[1][g].Add(1)
				}}
			if gather {
				first.Enable = rundown.Reverse(func(r rundown.GranuleID) []rundown.GranuleID {
					return []rundown.GranuleID{2 * r, 2*r + 1}
				})
			}
			prog, err := rundown.NewProgram(first, second)
			if err != nil {
				t.Fatal(err)
			}
			return rundown.Job{Name: "solo", Prog: prog, Opt: opt}, func() {
				t.Helper()
				for p := range seen {
					for g := range seen[p] {
						if c := seen[p][g].Load(); c != 1 {
							t.Fatalf("phase %d granule %d executed %d times", p, g, c)
						}
					}
				}
				if e := early.Load(); e != 0 {
					t.Fatalf("%d granules ran before a granule enabling them", e)
				}
			}
		}
	}
	costs := rundown.DefaultCosts()
	return map[string]func() (rundown.Job, func()){
		"barrier": build(rundown.Options{Grain: 8, Costs: costs}, false),
		"overlap": build(rundown.Options{Grain: 8, Overlap: true, Costs: costs}, false),
		"gather":  build(rundown.Options{Grain: 8, Overlap: true, Elevate: true, SubsetSize: 32, Costs: costs}, true),
	}
}

// simOneJob prices prog alone on the engine directly, bypassing the
// Runner, for tests that pin what an option set must equal.
func simOneJob(t *testing.T, prog *rundown.Program, opt rundown.Options, cfg sim.Config) *rundown.SimResult {
	t.Helper()
	res, err := sim.Run(context.Background(), []sim.JobSpec{{Prog: prog, Opt: opt}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Jobs[0].Err; err != nil {
		t.Fatal(err)
	}
	return res.OneJob()
}

// TestVirtualDequeCapSizesAsyncBuffer: in virtual time WithDequeCap(n)
// gives the Async model's ready buffer n tasks per processor, what the
// goroutine lanes hold together for one job — the Runner's run equals
// the engine's at ReadyCap n·procs, and that run differs from the model's
// own default, so the option is not ignored.
func TestVirtualDequeCapSizesAsyncBuffer(t *testing.T) {
	const procs, n = 8, 4
	prog, err := rundown.Chain(rundown.KindIdentity, 3, 2048, rundown.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := rundown.Options{Grain: 1, Overlap: true, Costs: rundown.DefaultCosts()}
	r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: procs}),
		rundown.WithManager(rundown.AsyncManager), rundown.WithDequeCap(n))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	want := simOneJob(t, prog, opt, sim.Config{Procs: procs, Mgmt: sim.Async, ReadyCap: n * procs})
	if !reflect.DeepEqual(rep.Sim, want) {
		t.Errorf("WithDequeCap(%d) on %d processors ran\n%+v\nwant sim.Config{ReadyCap: %d}'s\n%+v", n, procs, rep.Sim, n*procs, want)
	}
	def := simOneJob(t, prog, opt, sim.Config{Procs: procs, Mgmt: sim.Async})
	if reflect.DeepEqual(def, want) {
		t.Error("the Async model's default buffer prices this run the same as ReadyCap n·procs: the test cannot tell them apart")
	}
}

// TestVirtualAdaptiveBatchingSetsTarget: in virtual time
// WithAdaptiveBatching(target) is what turns the batch controller on — the
// Runner's run equals the engine's at sim.Config{AdaptiveTarget: target},
// a target <= 0 meaning sim.DefaultMgmtTarget — and, started from batch
// 1, the controller moves.
func TestVirtualAdaptiveBatchingSetsTarget(t *testing.T) {
	const procs = 8
	prog, err := rundown.Chain(rundown.KindIdentity, 3, 2048, rundown.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := rundown.Options{Grain: 1, Overlap: true, Costs: rundown.DefaultCosts()}
	for _, target := range []float64{0, 0.03} {
		r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: procs}),
			rundown.WithAdaptiveBatching(target), rundown.WithBatch(1))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		want := target
		if want <= 0 {
			want = sim.DefaultMgmtTarget
		}
		engine := simOneJob(t, prog, opt, sim.Config{Procs: procs, Mgmt: sim.Adaptive, Batch: 1, AdaptiveTarget: want})
		if !reflect.DeepEqual(rep.Sim, engine) {
			t.Errorf("WithAdaptiveBatching(%v) ran\n%+v\nwant sim.Config{AdaptiveTarget: %v}'s\n%+v", target, rep.Sim, want, engine)
		}
		if rep.Model != rundown.AdaptiveMgmt || rep.Sim.BatchChanges == 0 {
			t.Errorf("WithAdaptiveBatching(%v): model %v, %d controller changes; want the Adaptive model's controller moving",
				target, rep.Model, rep.Sim.BatchChanges)
		}
	}
}

// TestRunEqualsRunAllOneJob pins Run ≡ RunAll([job]) on goroutines, which
// holds by construction — both are runPool — under every manager and
// program shape: the same exactly-once, enabler-first ledger, the same
// report shape (headline, Exec, Pool, one JobReport whose Exec is the
// report's), every dispatched task completed, and, where one worker makes
// the decision sequence deterministic, the same scheduler statistics.
func TestRunEqualsRunAllOneJob(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []rundown.ExecManager{rundown.SerialManager, rundown.ShardedManager, rundown.AsyncManager} {
		for name, build := range oneJobCorpus(t) {
			for _, workers := range []int{1, 4} {
				r, err := rundown.New(rundown.WithWorkers(workers), rundown.WithManager(kind))
				if err != nil {
					t.Fatal(err)
				}
				job, check := build()
				one, err := r.Run(ctx, job)
				if err != nil {
					t.Fatalf("%v/%s/P=%d: Run: %v", kind, name, workers, err)
				}
				check()
				job, check = build()
				all, err := r.RunAll(ctx, []rundown.Job{job})
				if err != nil {
					t.Fatalf("%v/%s/P=%d: RunAll: %v", kind, name, workers, err)
				}
				check()
				for how, rep := range map[string]*rundown.Report{"Run": one, "RunAll": all} {
					if rep.Backend != r.Backend() || rep.Manager != kind || rep.Workers != workers ||
						rep.Exec == nil || rep.Pool == nil || len(rep.Jobs) != 1 || rep.Jobs[0].Exec != rep.Exec {
						t.Fatalf("%v/%s/P=%d: %s report shape: %+v", kind, name, workers, how, rep)
					}
					if s := rep.Exec.Sched; rep.Tasks != rep.Exec.Tasks || s.Dispatches != rep.Tasks || s.Completions != rep.Tasks {
						t.Errorf("%v/%s/P=%d: %s ran %d tasks (job %d), dispatched %d, completed %d",
							kind, name, workers, how, rep.Tasks, rep.Exec.Tasks, s.Dispatches, s.Completions)
					}
				}
				if workers == 1 && kind != rundown.AsyncManager && one.Exec.Sched != all.Exec.Sched {
					t.Errorf("%v/%s: one-worker statistics differ:\nRun    %+v\nRunAll %+v", kind, name, one.Exec.Sched, all.Exec.Sched)
				}
			}
		}
	}
}
