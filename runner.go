package rundown

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/tenant"
)

// Runner is the package's front door: one configured entry point whose
// Run and RunAll execute the same backend-agnostic Job spec on the
// virtual discrete-event machine or on real goroutine workers — selected
// purely by the options given to New. There is no other way in. On either
// machine Run is the one-job case of RunAll: one virtual-time engine, one
// goroutine worker loop (the tenant pool's).
//
//	r, _ := rundown.New(rundown.WithWorkers(8), rundown.WithManager(rundown.AsyncManager))
//	rep, err := r.Run(ctx, rundown.Job{Prog: prog, Opt: opt})
//
// Both methods honor ctx: cancellation aborts the run at the next
// dispatch boundary with an error wrapping ctx.Err(), releases parked
// workers, and tears down goroutine-free.
type Runner struct {
	cfg runnerConfig
}

// New builds a Runner from functional options. With no options it runs
// jobs on goroutines under the serial manager with
// runtime.GOMAXPROCS(0) workers. Conflicting options (for example
// WithPool with WithVirtualTime) make New fail.
func New(opts ...Option) (*Runner, error) {
	r := &Runner{}
	for _, o := range opts {
		if err := o(&r.cfg); err != nil {
			return nil, err
		}
	}
	r.cfg.resolve()
	return r, nil
}

// Run executes job on the configured backend and returns the unified
// report. Cancelling ctx aborts the run with an error wrapping
// ctx.Err().
func (r *Runner) Run(ctx context.Context, job Job) (*Report, error) {
	if r.cfg.virtual {
		return r.cfg.runVirtual(ctx, []Job{job}, true)
	}
	return r.cfg.runPool(ctx, []Job{job})
}

// RunAll executes jobs sharing the configured machine: the tenant pool's
// overlap-first dispatch on real backends, the multi-program simulation
// on the virtual backend. Jobs that fail individually appear with their
// error in Report.Jobs; the returned error is the first job error (so a
// partial Report and an error can both be non-nil on real backends).
func (r *Runner) RunAll(ctx context.Context, jobs []Job) (*Report, error) {
	if r.cfg.virtual {
		return r.cfg.runVirtual(ctx, jobs, false)
	}
	return r.cfg.runPool(ctx, jobs)
}

// Backend reports which machine the Runner drives. ExecBackend and
// PoolBackend are two labels for the same goroutine machine (WithPool
// picks the second); Report.Backend and Snapshot.Backend repeat it.
func (r *Runner) Backend() BackendKind { return r.cfg.backend() }

// StartPool starts a live multi-tenant pool configured from the Runner's
// options, for callers that need the incremental Submit/Wait/Close
// lifecycle rather than the one-shot RunAll. Virtual runners cannot
// start a pool.
func (r *Runner) StartPool() (*Pool, error) {
	if r.cfg.virtual {
		return nil, fmt.Errorf("rundown: a virtual-time Runner cannot start a goroutine pool (use RunAll)")
	}
	cfg := r.cfg.poolConfig()
	// A started pool has no Report to dump into; metrics callers read the
	// live registry instead (WithMetricsRegistry plus Handler/Publish).
	cfg.Metrics = r.cfg.newMetrics("ns")
	// Likewise it has no Report to attach a trace to: a caller-owned
	// recorder (WithTraceRecorder) is the live-pool tracing surface.
	cfg.Trace = r.cfg.traceRec
	return tenant.NewPool(cfg)
}

// jobName labels job i of a RunAll.
func jobName(job Job, i int) string {
	if job.Name != "" {
		return job.Name
	}
	return fmt.Sprintf("job%d", i)
}

// watchCancel spawns runPool's cancellation-watcher goroutine: when ctx
// fires, abort is called once with the raw ctx.Err() (the caller wraps it in
// its own error text). The returned stop function releases and joins the
// watcher; call it exactly once, after the run is over, so teardown is
// goroutine-leak-free. A never-cancellable ctx costs nothing.
func watchCancel(ctx context.Context, abort func(error)) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	runOver := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			abort(ctx.Err())
		case <-runOver:
		}
	}()
	return func() {
		close(runOver)
		<-watchDone
	}
}

// runPool runs jobs on a fresh multi-tenant worker pool: the goroutine
// machine, whatever the job count.
func (c *runnerConfig) runPool(ctx context.Context, jobs []Job) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// failEarly keeps the observer contract — one Final snapshot on
	// every outcome — for runs that die before the pool exists (once
	// the pool is up, its own Close emits the Final snapshot).
	failEarly := func(err error) (*Report, error) {
		if c.observer != nil {
			c.observer(Snapshot{Backend: c.backend(), Final: true})
		}
		return nil, err
	}
	// Match the virtual backend's contract (sim.RunMulti rejects an
	// empty job list) instead of silently spinning up and tearing down
	// an idle pool.
	if len(jobs) == 0 {
		return failEarly(fmt.Errorf("rundown: RunAll needs at least one job"))
	}
	// An already-cancelled context aborts deterministically before the
	// pool spins up — fast jobs could otherwise finish before the
	// watcher goroutine ever runs, returning success under a cancelled
	// context.
	if err := ctx.Err(); err != nil {
		return failEarly(fmt.Errorf("rundown: run canceled: %w", err))
	}
	rec := c.newRecorder()
	met := c.newMetrics("ns")
	pcfg := c.poolConfig()
	pcfg.Trace = rec
	pcfg.Metrics = met
	pool, err := tenant.NewPool(pcfg)
	if err != nil {
		return failEarly(err)
	}

	// Cancellation watcher: ctx firing aborts every active job with a
	// ctx.Err()-wrapped error; the watcher is joined before returning so
	// teardown is goroutine-leak-free.
	stopWatch := watchCancel(ctx, func(err error) {
		pool.Abort(fmt.Errorf("rundown: run canceled: %w", err))
	})

	handles := make([]*tenant.Job, 0, len(jobs))
	for i, job := range jobs {
		h, err := pool.Submit(job.Prog, c.jobOpt(job), tenant.JobConfig{
			Name: jobName(job, i), Priority: job.Priority, Weight: job.Weight,
			Deadline: c.jobDeadline(job),
			Retry:    c.jobRetry(job),
			Backoff:  c.jobBackoff(job),
		})
		if err != nil {
			submitErr := fmt.Errorf("rundown: job %q: %w", jobName(job, i), err)
			pool.Abort(submitErr)
			pool.Close()
			stopWatch()
			return nil, submitErr
		}
		handles = append(handles, h)
	}
	// The watcher can fire while jobs are still being submitted — or
	// before any were — and Abort only fails jobs active at that
	// instant, so a cancellation landing inside the submit loop would be
	// silently lost for later jobs. One recheck after the last Submit
	// closes every such window: no further jobs join the pool after this
	// point.
	if err := ctx.Err(); err != nil {
		pool.Abort(fmt.Errorf("rundown: run canceled: %w", err))
	}

	rep := &Report{
		Backend: c.backend(),
		Manager: c.manager,
		Workers: c.workers,
	}
	var firstErr error
	for i, h := range handles {
		jr, jerr := h.Wait()
		jrep := JobReport{
			Name: jobName(jobs[i], i), Err: jerr, Exec: jr, Backfill: h.BackfillTasks(),
			Attempts:  h.Attempts(),
			QueueWait: h.QueueWait(),
		}
		jrep.DeadlineMargin, jrep.HasDeadline = h.DeadlineMargin()
		rep.Jobs = append(rep.Jobs, jrep)
		if jerr != nil && firstErr == nil {
			firstErr = fmt.Errorf("rundown: job %q: %w", jobName(jobs[i], i), jerr)
		}
	}
	poolRep, closeErr := pool.Close()
	stopWatch()

	rep.Pool = poolRep
	rep.Tasks = poolRep.Tasks
	rep.Wall = poolRep.Wall
	rep.Utilization = poolRep.Utilization
	rep.Faults = poolRep.Faults
	rep.Retries = poolRep.Retries
	if poolRep.Mgmt > 0 {
		rep.MgmtRatio = float64(poolRep.Compute) / float64(poolRep.Mgmt)
	}
	if len(rep.Jobs) == 1 {
		// With one job the pool's parked time is the job's, less what the
		// workers spent outside its submit-to-retire window (Exec.Wall),
		// where they can only have been parked: subtracting the whole of it
		// keeps Compute+Mgmt+Idle within Workers·Wall by construction.
		rep.Exec = rep.Jobs[0].Exec
		lead := time.Duration(c.workers) * (poolRep.Wall - rep.Exec.Wall)
		rep.Exec.Idle = max(poolRep.Idle-lead, 0)
	}
	if firstErr == nil {
		firstErr = closeErr
	}
	c.finishMetrics(met, rep)
	if terr := c.finishTrace(rec, rep); terr != nil && firstErr == nil {
		firstErr = terr
	}
	return rep, firstErr
}

// runVirtual prices jobs on the deterministic discrete-event machine, the
// one virtual-time engine. Run is its one-job case (single): the same
// specs, failure policy and report, plus the single-program detail
// (timeline, chart) in Report.Sim, and — like the other backends' Run —
// every error names the job.
func (c *runnerConfig) runVirtual(ctx context.Context, jobs []Job, single bool) (*Report, error) {
	rec := c.newRecorder()
	met := c.newMetrics("virtual")
	cfg := c.simConfig(rec, met)
	specs := make([]sim.JobSpec, len(jobs))
	for i, job := range jobs {
		specs[i] = sim.JobSpec{
			Name: jobName(job, i), Prog: job.Prog, Opt: c.jobOpt(job),
			Priority: job.Priority, Weight: job.Weight,
			// One virtual unit per nanosecond keeps the same Job spec
			// meaningful on both clocks.
			Deadline: int64(c.jobDeadline(job)),
			Retry:    c.jobRetry(job),
			Backoff:  int64(c.jobBackoff(job)),
		}
	}
	rep := &Report{
		Backend: VirtualBackend,
		Manager: c.manager,
		Model:   cfg.Mgmt,
	}
	var res *sim.MultiResult
	var err error
	if single {
		rep.Sim, res, err = sim.RunJobContext(ctx, specs[0], cfg)
		if err != nil {
			err = fmt.Errorf("rundown: job %q: %w", specs[0].Name, err)
		}
	} else {
		res, err = sim.RunMultiContext(ctx, specs, cfg)
		rep.SimMulti = res
	}
	if err != nil {
		return nil, err
	}
	rep.Workers = res.Procs
	rep.Makespan = res.Makespan
	rep.Utilization = res.Utilization
	rep.Faults = res.Faults
	rep.Retries = res.Retries
	var firstErr error
	for i := range res.Jobs {
		j := &res.Jobs[i]
		rep.Tasks += j.Sched.Dispatches
		jrep := JobReport{
			Name: j.Name, Err: j.Err, Sim: j, Backfill: j.BackfillUnits,
			Attempts: j.Attempts,
		}
		// Virtual jobs all activate at submission (QueueWait 0); a
		// deadlined job's margin is its budget minus its makespan, on the
		// one-unit-per-nanosecond clock the Deadline spec uses.
		if d := specs[i].Deadline; d > 0 {
			jrep.DeadlineMargin = time.Duration(d - j.Makespan)
			jrep.HasDeadline = true
		}
		rep.Jobs = append(rep.Jobs, jrep)
		if j.Err != nil && firstErr == nil {
			// Same contract as the pool backend: per-job failures land in
			// Jobs, the first one (in submit order) is also the returned
			// error, and both the Report and the error are non-nil.
			firstErr = fmt.Errorf("rundown: job %q: %w", j.Name, j.Err)
		}
	}
	if res.MgmtUnits > 0 {
		rep.MgmtRatio = float64(res.ComputeUnits) / float64(res.MgmtUnits)
	}
	c.finishMetrics(met, rep)
	if terr := c.finishTrace(rec, rep); terr != nil && firstErr == nil {
		firstErr = terr
	}
	return rep, firstErr
}
