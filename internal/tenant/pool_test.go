package tenant

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
	"repro/internal/share"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// buildCopyChain builds the three-phase identity copy chain used across
// the executive tests, with its own backing arrays.
func buildCopyChain(t testing.TB, n int) (*core.Program, []int64, []int64, []int64) {
	t.Helper()
	a := make([]int64, n)
	b := make([]int64, n)
	c := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "fill", Granules: n,
			Work:   func(g granule.ID) { a[g] = int64(g) * 3 },
			Enable: enable.NewIdentity(),
		},
		&core.Phase{
			Name: "copy", Granules: n,
			Work:   func(g granule.ID) { b[g] = a[g] + 1 },
			Enable: enable.NewIdentity(),
		},
		&core.Phase{
			Name: "mix", Granules: n,
			Work: func(g granule.ID) { c[g] = b[g] ^ a[g] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog, a, b, c
}

func checkCopyChain(t testing.TB, a, b, c []int64) {
	t.Helper()
	for g := range a {
		wantA := int64(g) * 3
		wantB := wantA + 1
		if a[g] != wantA || b[g] != wantB || c[g] != wantB^wantA {
			t.Fatalf("granule %d: a=%d b=%d c=%d", g, a[g], b[g], c[g])
		}
	}
}

// runSingleJobPool runs prog as the only job of a fresh pool and returns
// its report plus the pool report.
func runSingleJobPool(t *testing.T, prog *core.Program, opt core.Options, cfg Config) (*executive.Report, *Report) {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(prog, opt, JobConfig{Name: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	poolRep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rep, poolRep
}

// driveAlone runs prog on the calling goroutine as the one worker of a bare
// manager — the executive protocol with no pool around it — and returns
// the task count and the state machine's statistics.
func driveAlone(t *testing.T, prog *core.Program, opt core.Options, cfg executive.Config) (int64, core.Stats) {
	t.Helper()
	opt.Workers = cfg.Workers
	sched, err := core.New(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := executive.NewManager(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	var tasks int64
	task, at, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), executive.AskTry)
	for ok {
		if err := executive.RunTask(prog.Phases[task.Phase].Work, task); err != nil {
			t.Fatal(err)
		}
		tasks++
		task, at, ok, _ = mgr.Enter(0, task, at, executive.AskTry)
	}
	if done, err := mgr.Outcome(); !done || err != nil {
		t.Fatalf("hand-driven run ended with done=%v err=%v", done, err)
	}
	return tasks, sched.Stats()
}

// TestPoolConformance proves the pool adds nothing to a job's scheduling
// under every manager. With one worker the decision sequence is
// deterministic, so a single-job pool's state-machine statistics and task
// count must match the same manager driven by hand, with no pool around
// it, exactly; with several workers the decision interleaving is
// timing-dependent, so equivalence is the structural part: identical
// results, every granule exactly once, and a complete report. The async
// manager skips the exact part even at one worker — its management
// goroutine's refill boundaries race the worker's pulls, so the decision
// sequence is inherently timing-dependent.
func TestPoolConformance(t *testing.T) {
	const n = 2048
	opt := func() core.Options {
		return core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
	}
	for _, kind := range executive.ManagerKinds() {
		if kind != executive.AsyncManager {
			// One worker: exact equivalence.
			prog, a1, b1, c1 := buildCopyChain(t, n)
			tasks, stats := driveAlone(t, prog, opt(), executive.Config{
				Workers: 1, Manager: kind, DequeCap: 8, Batch: 4,
			})
			checkCopyChain(t, a1, b1, c1)

			prog2, a2, b2, c2 := buildCopyChain(t, n)
			poolRep, _ := runSingleJobPool(t, prog2, opt(), Config{
				Workers: 1, Manager: kind, DequeCap: 8, Batch: 4,
			})
			checkCopyChain(t, a2, b2, c2)

			if poolRep.Manager != kind {
				t.Errorf("%v: report names manager %v", kind, poolRep.Manager)
			}
			if poolRep.Tasks != tasks {
				t.Errorf("%v: pool ran %d tasks, the bare manager %d", kind, poolRep.Tasks, tasks)
			}
			if poolRep.Sched != stats {
				t.Errorf("%v: scheduler stats diverge:\npool: %+v\nbare: %+v", kind, poolRep.Sched, stats)
			}
		}

		// Eight workers: structural equivalence.
		prog3, a3, b3, c3 := buildCopyChain(t, n)
		rep8, pr8 := runSingleJobPool(t, prog3, opt(), Config{
			Workers: 8, Manager: kind, DequeCap: 8, Batch: 4,
		})
		checkCopyChain(t, a3, b3, c3)
		if rep8.Tasks == 0 || rep8.Compute <= 0 || rep8.Wall <= 0 {
			t.Errorf("%v/8 workers: degenerate report %v", kind, rep8)
		}
		if rep8.Sched.Completions == 0 {
			t.Errorf("%v/8 workers: no completions recorded", kind)
		}
		if pr8.BackfillTasks != 0 {
			t.Errorf("%v/8 workers: single-job pool recorded %d backfill tasks", kind, pr8.BackfillTasks)
		}
		if pr8.Jobs != 1 || pr8.Tasks != rep8.Tasks {
			t.Errorf("%v/8 workers: pool report %+v inconsistent with job report", kind, pr8)
		}
	}
}

// TestPoolTwoJobsRace is the -race workout the acceptance criteria call
// for: >= 2 concurrent jobs on a shared pool under the sharded manager
// with small deques and batches (constant stealing, flushing, and
// cross-job dispatch), verifying both jobs' results.
func TestPoolTwoJobsRace(t *testing.T) {
	const n = 2048
	for _, cfg := range []Config{
		{Workers: 8, Manager: executive.ShardedManager, DequeCap: 4, Batch: 2},
		// The async arm runs one management goroutine per job beside the
		// 8 shared workers, with one-task ready lanes forcing constant
		// refills, completion-lane drains, and pool-level notify wakeups.
		{Workers: 8, Manager: executive.AsyncManager, DequeCap: 1, Batch: 2},
	} {
		p, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		progA, aA, bA, cA := buildCopyChain(t, n)
		progB, aB, bB, cB := buildCopyChain(t, n)
		jobA, err := p.Submit(progA, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
			JobConfig{Name: "A"})
		if err != nil {
			t.Fatal(err)
		}
		jobB, err := p.Submit(progB, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
			JobConfig{Name: "B", Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		repA, errA := jobA.Wait()
		repB, errB := jobB.Wait()
		if errA != nil || errB != nil {
			t.Fatalf("%v: job errors: A=%v B=%v", cfg.Manager, errA, errB)
		}
		checkCopyChain(t, aA, bA, cA)
		checkCopyChain(t, aB, bB, cB)
		if repA.Tasks == 0 || repB.Tasks == 0 {
			t.Fatalf("%v: degenerate reports: A=%v B=%v", cfg.Manager, repA, repB)
		}
		rep, err := p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Jobs != 2 || rep.Tasks != repA.Tasks+repB.Tasks {
			t.Errorf("%v: pool report %+v inconsistent with job reports", cfg.Manager, rep)
		}
	}
}

// TestPoolSerialTwoJobs runs the same two-job workout under the serial
// manager.
func TestPoolSerialTwoJobs(t *testing.T) {
	const n = 1024
	p, err := NewPool(Config{Workers: 4, Manager: executive.SerialManager})
	if err != nil {
		t.Fatal(err)
	}
	progA, aA, bA, cA := buildCopyChain(t, n)
	progB, aB, bB, cB := buildCopyChain(t, n)
	jobA, _ := p.Submit(progA, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	jobB, _ := p.Submit(progB, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	if _, err := jobA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := jobB.Wait(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, aA, bA, cA)
	checkCopyChain(t, aB, bB, cB)
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBackfillDuringRundown pins the tentpole behaviour: a job whose
// tail tasks block its home workers leaves spare capacity, and the pool
// routes that capacity to the other job as backfill. The blocker job's
// work sleeps (releasing the CPU — the host may have a single core), so
// its home workers hit real rundown windows while the filler job still
// has dispatchable tasks.
func TestPoolBackfillDuringRundown(t *testing.T) {
	runBackfillRundown(t, Config{Workers: 4, Manager: executive.ShardedManager, DequeCap: 2, Batch: 1})
}

// TestPoolBackfillAsync runs the same rundown-backfill scenario with
// per-job async managers: the tentpole requirement that tenant backfill
// works unchanged over the one Manager contract, with job progress arriving
// through the SetNotify callback instead of worker-applied completions.
func TestPoolBackfillAsync(t *testing.T) {
	runBackfillRundown(t, Config{Workers: 4, Manager: executive.AsyncManager, DequeCap: 1, Batch: 1})
}

// buildBackfillPair builds the rundown-backfill scenario's two programs.
// blocker: its first phase holds one granule hostage until the filler
// job is half done (gate channel), so the blocker's other home worker
// faces a guaranteed rundown window — its own job has nothing
// dispatchable while the filler still holds hundreds of tasks. Work
// blocks instead of spinning: the host may have a single core. verify
// checks, once both jobs finished, that every granule of both ran.
func buildBackfillPair(t *testing.T) (blockerProg, fillerProg *core.Program, verify func()) {
	t.Helper()
	gate := make(chan struct{})
	var blockerRan atomic.Int64
	blockerProg, err := core.NewProgram(
		&core.Phase{
			Name: "hostage", Granules: 2,
			Work: func(g granule.ID) {
				if g == 0 {
					<-gate
				} else {
					time.Sleep(100 * time.Microsecond)
				}
				blockerRan.Add(1)
			},
		},
		&core.Phase{
			Name: "tail", Granules: 2,
			Work: func(granule.ID) {
				time.Sleep(100 * time.Microsecond)
				blockerRan.Add(1)
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	const fillerN = 512
	fillerDone := make([]atomic.Bool, 2*fillerN)
	fillerPhase := func(name string, base int, en *enable.Spec) *core.Phase {
		return &core.Phase{
			Name: name, Granules: fillerN,
			Work: func(g granule.ID) {
				time.Sleep(20 * time.Microsecond)
				fillerDone[base+int(g)].Store(true)
				if base == 0 && g == fillerN/2 {
					close(gate)
				}
			},
			Enable: en,
		}
	}
	fillerProg, err = core.NewProgram(
		fillerPhase("f1", 0, enable.NewIdentity()), fillerPhase("f2", fillerN, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	return blockerProg, fillerProg, func() {
		t.Helper()
		for i := range fillerDone {
			if !fillerDone[i].Load() {
				t.Fatalf("filler granule %d never ran", i)
			}
		}
		if blockerRan.Load() != 4 {
			t.Fatalf("blocker ran %d granules, want 4", blockerRan.Load())
		}
	}
}

// submitBackfillPair submits the pair with the options the scenario
// depends on: blocker first, so it owns home workers when filler arrives.
func submitBackfillPair(t *testing.T, p *Pool, blockerProg, fillerProg *core.Program) (blocker, filler *Job) {
	t.Helper()
	blocker, err := p.Submit(blockerProg, core.Options{Grain: 1, Costs: core.DefaultCosts()},
		JobConfig{Name: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	filler, err = p.Submit(fillerProg, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()},
		JobConfig{Name: "filler"})
	if err != nil {
		t.Fatal(err)
	}
	return blocker, filler
}

func runBackfillRundown(t *testing.T, cfg Config) {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blockerProg, fillerProg, verify := buildBackfillPair(t)
	blocker, filler := submitBackfillPair(t, p, blockerProg, fillerProg)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(); err != nil {
		t.Fatal(err)
	}
	verify()
	rep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if filler.BackfillTasks() == 0 {
		t.Errorf("filler received no backfill despite blocker's sleeping home workers: %v", rep)
	}
	if rep.BackfillTasks != filler.BackfillTasks()+blocker.BackfillTasks() {
		t.Errorf("pool backfill %d != job backfill %d+%d",
			rep.BackfillTasks, filler.BackfillTasks(), blocker.BackfillTasks())
	}
}

// TestPoolPanicIsolation: a work panic fails its own job and leaves the
// other job (and the pool) intact.
func TestPoolPanicIsolation(t *testing.T) {
	const n = 1024
	p, err := NewPool(Config{Workers: 8, Manager: executive.ShardedManager, DequeCap: 4, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	poison, err := core.NewProgram(
		&core.Phase{
			Name: "poison", Granules: n,
			Work: func(g granule.ID) {
				if g == n/2 {
					panic("tenant poison")
				}
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	good, a, b, c := buildCopyChain(t, n)

	bad, _ := p.Submit(poison, core.Options{Grain: 8, Costs: core.DefaultCosts()}, JobConfig{Name: "bad"})
	okJob, _ := p.Submit(good, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{Name: "good"})

	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned job error = %v, want work panic", err)
	}
	if _, err := okJob.Wait(); err != nil {
		t.Fatalf("good job failed alongside the poisoned one: %v", err)
	}
	checkCopyChain(t, a, b, c)
	if _, err := p.Close(); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("Close error = %v, want the poisoned job's failure", err)
	}
}

// TestPoolDynamicSubmit submits a second job while the first is already
// running and expects both to complete.
func TestPoolDynamicSubmit(t *testing.T) {
	const n = 4096
	p, err := NewPool(Config{Workers: 4, Manager: executive.ShardedManager, DequeCap: 4, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	progA, aA, bA, cA := buildCopyChain(t, n)
	jobA, err := p.Submit(progA, core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progB, aB, bB, cB := buildCopyChain(t, n)
	jobB, err := p.Submit(progB, core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := jobB.Wait(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, aA, bA, cA)
	checkCopyChain(t, aB, bB, cB)
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSubmitAfterClose: Submit on a closed pool must fail.
func TestPoolSubmitAfterClose(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ := buildCopyChain(t, 16)
	if _, err := p.Submit(prog, core.Options{}, JobConfig{}); err == nil {
		t.Fatal("Submit on a closed pool succeeded")
	}
}

func TestPoolRejectsBadConfig(t *testing.T) {
	if _, err := NewPool(Config{Workers: 0}); err == nil {
		t.Error("zero-worker pool accepted")
	}
	if _, err := NewPool(Config{Workers: 2, Manager: executive.ManagerKind(250)}); err == nil {
		t.Error("unknown manager kind accepted")
	}
}

// stallDriver is a Manager that never yields work while something is in
// flight: a job whose work is in the hands of a goroutine that is not a
// pool worker (an async job's management goroutine), until finish ends it.
type stallDriver struct {
	mu       sync.Mutex
	inflight int
	done     bool
	err      error
	probes   int // InFlight calls: one per all-parked probe of this job
}

func (d *stallDriver) Start() {}
func (d *stallDriver) Enter(_ int, _ core.Task, at clock.Stamp, _ executive.Ask) (core.Task, clock.Stamp, bool, bool) {
	return core.Task{}, at, false, false
}
func (d *stallDriver) Flush(_ int, at clock.Stamp) (clock.Stamp, bool)    { return at, false }
func (d *stallDriver) Totals() (compute, mgmt time.Duration, tasks int64) { return 0, 0, 0 }
func (d *stallDriver) Join()                                              {}
func (d *stallDriver) SetNotify(func())                                   {}
func (d *stallDriver) Abort(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.done && d.err == nil {
		d.err = err
	}
}
func (d *stallDriver) Outcome() (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.done, d.err
}
func (d *stallDriver) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.probes++
	return d.inflight
}
func (d *stallDriver) finish() (probes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.done, d.inflight = true, 0
	return d.probes
}

// injectJob activates a job over prog whose manager build returns (the
// public Submit path cannot build a manager that misbehaves, or wrap one).
func injectJob(t *testing.T, p *Pool, name string, prog *core.Program, build func(*core.Scheduler) executive.Manager) *Job {
	t.Helper()
	sched, err := core.New(prog, core.Options{Workers: p.cfg.Workers, Grain: 4, Overlap: true, Costs: core.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{
		pool: p, cfg: JobConfig{Name: name, Weight: 1},
		prog: prog,
		done: make(chan struct{}), submitted: time.Now(),
	}
	j.cur.Store(&attempt{job: j, n: 1, sched: sched, mgr: build(sched)})
	j.attempts.Store(1)
	p.mu.Lock()
	j.idx = len(p.jobs)
	j.pol = share.Job{ID: j.idx, Weight: 1}
	p.jobs = append(p.jobs, j)
	p.activate(j, Queued)
	p.mu.Unlock()
	p.progress()
	return j
}

// dryMachine is a state machine that never yields work and never
// finishes: the shape of a wedged job, unreachable through the real state
// machine's liveness guarantees, which the pool must fail, not deadlock on.
type dryMachine struct{}

func (dryMachine) Start() core.Cost                       { return 0 }
func (dryMachine) NextTask() (core.Task, core.Cost, bool) { return core.Task{}, 0, false }
func (dryMachine) Complete(core.Task) core.Cost           { return 0 }
func (dryMachine) CompleteBatch([]core.Task) core.Cost    { return 0 }
func (dryMachine) DeferredMgmt() (core.Cost, bool)        { return 0, false }
func (dryMachine) HasDeferred() bool                      { return false }
func (dryMachine) Done() bool                             { return false }
func (dryMachine) InFlight() int                          { return 0 }
func (dryMachine) NextTasks(dst []core.Task, _ int) ([]core.Task, core.Cost) {
	return dst, 0
}

// countingManager counts the calls a pool makes into a job's manager.
// flowing is set while the last Enter handed out a task: an Outcome call
// then is the per-task lock entry the fused home path exists to remove.
type countingManager struct {
	executive.Manager
	calls, outcomesInFlow atomic.Int64
	flowing               atomic.Bool
}

func (c *countingManager) Enter(w int, done core.Task, at clock.Stamp, ask executive.Ask) (core.Task, clock.Stamp, bool, bool) {
	c.calls.Add(1)
	t, now, ok, applied := c.Manager.Enter(w, done, at, ask)
	c.flowing.Store(ok)
	return t, now, ok, applied
}
func (c *countingManager) Flush(w int, at clock.Stamp) (clock.Stamp, bool) {
	c.calls.Add(1)
	return c.Manager.Flush(w, at)
}
func (c *countingManager) Outcome() (bool, error) {
	c.calls.Add(1)
	if c.flowing.Load() {
		c.outcomesInFlow.Add(1)
	}
	return c.Manager.Outcome()
}
func (c *countingManager) InFlight() int {
	c.calls.Add(1)
	return c.Manager.InFlight()
}

// TestPoolHomePathEntersOncePerTask: a pool worker serving its home job
// enters the job's serial executive once per task — report the finished
// task, take the next — as an engine worker does, and asks for the outcome
// only when no task came back. (Before the fused entry it was three lock
// entries per task: the ask, the completion, the outcome.)
func TestPoolHomePathEntersOncePerTask(t *testing.T) {
	p, err := NewPool(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, a, b, c := buildCopyChain(t, 2048)
	var mgr *countingManager
	j := injectJob(t, p, "counted", prog, func(sched *core.Scheduler) executive.Manager {
		inner, err := executive.NewManager(sched, executive.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		mgr = &countingManager{Manager: inner}
		return mgr
	})
	rep, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
	calls, slack := mgr.calls.Load(), int64(8*len(prog.Phases))
	t.Logf("%d tasks, %d manager calls", rep.Tasks, calls)
	if rep.Tasks < 1000 {
		t.Fatalf("only %d tasks ran; the bound below needs many", rep.Tasks)
	}
	if calls > rep.Tasks+slack {
		t.Errorf("%d manager calls for %d tasks: want at most one per task plus %d", calls, rep.Tasks, slack)
	}
	if n := mgr.outcomesInFlow.Load(); n != 0 {
		t.Errorf("Outcome was asked %d times while tasks were flowing", n)
	}
}

// TestPoolStallDetector: stall detection on hardware lives in the pool, in
// one place, under every manager. A job whose real manager sits over a dry
// state machine (injected directly — the public Submit path cannot build
// one) is asked by every worker, comes back dry every time without parking
// anyone or failing on its own authority, and is failed by the pool's
// all-parked probe once every worker has parked.
func TestPoolStallDetector(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			const workers = 3
			p, err := NewPool(Config{Workers: workers, Manager: kind})
			if err != nil {
				t.Fatal(err)
			}
			stalledBefore := probeVerdicts.stalled.Load()
			prog, _, _, _ := buildCopyChain(t, 16)
			j := injectJob(t, p, "wedged", prog, func(*core.Scheduler) executive.Manager {
				mgr, err := executive.NewManager(dryMachine{}, executive.Config{Workers: workers, Manager: kind})
				if err != nil {
					t.Fatal(err)
				}
				mgr.SetNotify(p.progress)
				return mgr
			})

			select {
			case <-j.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("stalled job not detected within 10s")
			}
			if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "tenant: job \"wedged\" stalled") {
				t.Fatalf("wedged job error = %v, want the pool's stall verdict", err)
			}
			rep, err := p.Close()
			if err == nil || !strings.Contains(err.Error(), "stalled") {
				t.Fatalf("Close error = %v, want stall", err)
			}
			if rep.Stalled != 1 {
				t.Errorf("report counts %d stalled jobs, want 1", rep.Stalled)
			}
			if probeVerdicts.stalled.Load() == stalledBefore {
				t.Error("the all-parked probe never reported a stall verdict")
			}
		})
	}
}

// TestPoolProbeWaitsWhileWorkIsInFlight: when every worker is parked and
// the one active job still has work in flight — in the hands of a
// goroutine that is not a pool worker — the all-parked probe must wait for
// that goroutine's wakeup like any other parker. It used to return and
// rebroadcast, so the workers re-swept and re-probed in a storm against
// the one goroutine that could make progress. The job is probed once per
// park: a handful of times here, tens of thousands in a spin.
func TestPoolProbeWaitsWhileWorkIsInFlight(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mgr := &stallDriver{inflight: 1}
	prog, _, _, _ := buildCopyChain(t, 16)
	j := injectJob(t, p, "elsewhere", prog, func(*core.Scheduler) executive.Manager { return mgr })
	time.Sleep(50 * time.Millisecond)
	select {
	case <-j.Done():
		t.Fatal("a job with work in flight was retired by the stall probe")
	default:
	}
	probes := mgr.finish()
	p.progress() // the wakeup the manager's notify callback would deliver
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if probes > 8 {
		t.Errorf("the job was probed %d times in 50ms with nothing to report: the all-parked probe spins", probes)
	}
}

// TestPoolAsyncProbeParks is the same property on a real one-job async
// pool, where a worker that outruns the management goroutine finds itself
// the last to park with completions queued but not yet applied: every
// all-parked probe that found nothing stalled must go on to park (a
// pool-level KPark inside the job's extent), not return for another sweep.
// A chain of barrier phases one granule wide makes each phase boundary a
// round trip through the management goroutine.
func TestPoolAsyncProbeParks(t *testing.T) {
	specs := make([]*core.Phase, 256)
	for i := range specs {
		specs[i] = &core.Phase{Name: fmt.Sprintf("p%d", i), Granules: 1, Work: func(granule.ID) {}}
	}
	prog, err := core.NewProgram(specs...)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.Meta{}, 1)
	p, err := NewPool(Config{Workers: 1, Manager: executive.AsyncManager, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	idleBefore := probeVerdicts.idle.Load()
	j, err := p.Submit(prog, core.Options{Costs: core.DefaultCosts()}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	idle := probeVerdicts.idle.Load() - idleBefore
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var parks int64
	running := false
	for _, e := range rec.Take().Events {
		switch {
		case e.Kind == trace.KStart && e.Job == 0:
			running = true
		case e.Kind == trace.KFinish && e.Job == 0:
			running = false
		case e.Kind == trace.KPark && e.Job == -1 && running:
			parks++
		}
	}
	t.Logf("%d all-parked probes found nothing stalled; %d parks while the job ran", idle, parks)
	if parks < idle {
		t.Errorf("%d all-parked probes found nothing stalled but the worker parked only %d times: the rest spun", idle, parks)
	}
}

// TestPoolAsyncDoesNotParkPerRefill is the count gate on the async
// manager's no-spare-core rule. With GOMAXPROCS equal to the worker count
// the management goroutine has no core of its own, so a fine-grain chain
// drains the ready lanes every readyCap tasks, what they hold together; a
// worker that finds its lane empty and the executive idle must enter the
// executive itself. When it parked instead — waiting for the management
// goroutine to be scheduled — the pool recorded about one KPark per
// refill, Tasks/readyCap of them.
func TestPoolAsyncDoesNotParkPerRefill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const readyCap = 8
	prog, ledger := testutil.LedgerChain(t, 3, 8192)
	rec := trace.NewRecorder(trace.Meta{}, 2)
	p, err := NewPool(Config{Workers: 2, Manager: executive.AsyncManager, DequeCap: readyCap / 2, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(prog, core.Options{
		Grain: 2, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts(),
	}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}

	ledger.Check(t)
	if rep.Tasks != rep.Sched.Completions {
		t.Errorf("%d tasks executed, %d completions applied", rep.Tasks, rep.Sched.Completions)
	}
	parks := int64(rec.Take().Count(trace.KPark))
	t.Logf("%d parks over %d tasks (one per refill would be %d)", parks, rep.Tasks, rep.Tasks/readyCap)
	if limit := rep.Tasks / readyCap / 8; parks >= limit {
		t.Errorf("%d parks over %d tasks, want fewer than %d: workers wait out refills instead of entering the executive",
			parks, rep.Tasks, limit)
	}
}
