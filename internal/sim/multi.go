package sim

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/share"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the event engine: one or more jobs, each with its own
// core.Scheduler, sharing one P-processor machine in virtual time — the
// discrete-event analogue of internal/tenant's worker pool; a one-job run
// is the same engine with one job (MultiResult.OneJob). It prices what tenancy costs the hot path: every
// management probe (including a failed ask at a foreign job) is charged
// to the executive resource. Which job a worker serves is not decided
// here: the engine drives the same share.Policy object the pool does
// (DESIGN.md §5.2). Nor is what a management request is and where it is
// charged: that is the run's management model, one value (model.go) the
// engine asks at every point where the models differ.

// JobSpec describes one job of a multi-program run.
type JobSpec struct {
	// Name labels the job in results ("jobN" default).
	Name string
	// Prog is the job's program.
	Prog *core.Program
	// Opt configures the job's scheduler.
	Opt core.Options
	// Priority orders backfill (higher first), as in tenant.JobConfig.
	Priority int
	// Weight is the job's share of home workers and backfill credit
	// (<= 0 selects 1).
	Weight int
	// Deadline is the job's virtual-time budget (<= 0 = none): a job not
	// done by t=Deadline is aborted AT the deadline with an error
	// wrapping context.DeadlineExceeded; co-tenants keep running.
	Deadline int64
	// Retry is how many times an injected grain failure (panic or error)
	// restarts the job on a fresh scheduler. Deadline aborts never
	// retry.
	Retry int
	// Backoff is the base restart delay in virtual units, doubled on
	// each further attempt and capped at 64× base (0 = restart
	// immediately).
	Backoff int64
}

// JobResult aggregates one job's outcome within a multi-program run.
type JobResult struct {
	Name string
	// Makespan is the virtual time the job's last completion finished
	// processing (all jobs start at t=0).
	Makespan int64
	// ComputeUnits is the job's total granule execution time.
	ComputeUnits int64
	// BackfillUnits is the part of ComputeUnits performed by processors
	// homed on another job — the rundown fill the job received.
	BackfillUnits int64
	// HomeWorkers is the job's home-worker share at the start of the run.
	HomeWorkers int
	// Sched is the job's scheduler statistics.
	Sched core.Stats
	// Err is the job's terminal error (nil = completed): an injected
	// failure that exhausted its retries, or a deadline abort (test with
	// errors.Is(err, context.DeadlineExceeded)). A failed job's Makespan
	// is the time it was retired.
	Err error
	// Attempts counts schedule attempts (1 = never retried).
	Attempts int
	// Phases traces each phase of the job's final attempt. A worker's park
	// and its idle time are attributed to the phase that was current for
	// the worker's home job when the park began, so in a shared machine a
	// job's rundown numbers are those of the processors homed on it.
	Phases []PhaseTrace
}

// MultiResult aggregates a multi-program run.
type MultiResult struct {
	// Makespan is the virtual completion time of the last job.
	Makespan int64
	// ComputeUnits, MgmtUnits and IdleUnits aggregate across jobs.
	ComputeUnits int64
	MgmtUnits    int64
	IdleUnits    int64
	// BackfillUnits is total cross-job compute (every job's backfill).
	BackfillUnits int64
	// Workers is the number of processors that executed granules; Procs
	// is the machine size P.
	Workers int
	Procs   int
	// Utilization is ComputeUnits / (Procs * Makespan).
	Utilization float64
	// Batch is the pool-wide refill batch size at the end of the run
	// (Adaptive model only; see Result.Batch). Zero under other models.
	Batch int
	// BatchChanges counts the pool-wide adaptive controller's parameter
	// changes (Adaptive model with Config.AdaptiveTarget).
	BatchChanges int
	// Faults counts injected fault firings (Config.Faults); Retries
	// counts job restarts.
	Faults  int64
	Retries int64
	// MaxBackfillTask is the largest backfill dispatch in granules — the
	// measured bound Config.PreemptBound caps.
	MaxBackfillTask int
	// Jobs holds the per-job results in submission order.
	Jobs []JobResult
}

// mjob is one job's runtime state.
type mjob struct {
	spec  JobSpec
	sched *core.Scheduler
	// pol is the job's standing in the dispatch policy: in the live set from
	// the start of the run until the job is done, except while it waits out
	// a retry backoff.
	pol  share.Job
	done bool
	// ready and hasDef cache sched.ReadyTasks() and sched.HasDeferred(),
	// refreshed by mstate.syncReady after every scheduler call, so wake
	// and the idle-absorption probe read counters instead of re-querying
	// every job per event.
	ready  int
	hasDef bool
	// openAt gates dispatch: a serial action between phases (charged
	// inside the completion that advanced the phase window) must finish
	// before the next phase's queued granules may be handed out. The wake
	// that announces them carries the serial action's finish time, but a
	// worker can ask inside the window all the same — woken by another
	// job's event, or, on a per-worker management lane, straight after a
	// completion — so the gate is explicit.
	openAt int64

	// phases is the per-phase schedule of the current attempt (see
	// PhaseTrace), reported as JobResult.Phases.
	phases []PhaseTrace

	makespan int64
	compute  int64
	backfill int64
	homeAt0  int

	// Failure state (see faults.go): the resolved options retries
	// re-create the scheduler from, the attempt generation completion
	// events must match to be believed (a failure bumps it, orphaning the
	// dead attempt's in-flight work), the attempt count, the remaining
	// retry budget, when the next attempt starts (-1 = no restart pending),
	// and the terminal error.
	opt         core.Options
	attempt     int64
	attempts    int
	retriesLeft int
	restartAt   int64
	err         error
}

// mitem is one queue entry: an idle worker's ask for work, or a task
// completion. The queue is strictly TIME-ordered (push order only breaks
// ties), so a wake stamped with a serial action's finish time never
// commits its worker ahead of an earlier event: a failed probe is charged
// where it happens in virtual time, and one job's serial-action delay
// cannot hold workers another job's earlier release could claim.
//
// Asks carry the issuing generation of their worker: a parked worker
// woken for time T can be re-woken for an earlier T' by another job's
// release, and the superseded ask must then die when it surfaces.
// Completions carry their job's ATTEMPT generation instead: a job
// failure bumps it, and the dead attempt's in-flight completions are
// dropped when they surface (the worker is freed, the result
// discarded).
//
// The record is the event's address only — when, who, which generation —
// three pointer-free words that mqueue (heap.go) keeps in a slot and pop
// returns by value. What a completion delivers (the task, its cost, an
// injected failure) waits with the worker: see mflight.
type mitem struct {
	at   int64
	gen  int64
	proc int32
	job  int32 // the completing task's job; noJob marks an ask
}

const noJob = -1

func (it mitem) isDone() bool { return it.job >= 0 }

// mworker is the part of a worker's state that every event of that worker
// touches, kept together so an event costs one cache line of worker state
// (TestMitemSize guards the 64 bytes): the running task, the generation a
// live ask must carry (it bumps when a pending ask is superseded), when the
// worker is next free of its task and of management charged on its own
// lane (perTask.lane), and whether it is parked.
type mworker struct {
	flight mflight
	askGen int64
	free   int64
	parked bool
}

// mflight is the task a worker is running. A worker holds at most one:
// it is dispatched only from its own ask, and asks again only once the
// completion event has surfaced. So the record is written once, by
// dispatch, and read in place by the completion handlers — valid from the
// dispatch until the worker's NEXT dispatch, which means a completion
// handler must be finished with it before it serves the worker's re-ask.
type mflight struct {
	task core.Task
	dur  int64 // the task's compute cost
}

// Run simulates jobs sharing one machine under cfg: the engine's one entry
// point. All jobs start at t=0. Mgmt selects any management model. Under
// Adaptive, Config.Batch and Config.AdaptiveTarget govern one pool-wide
// controller; under Async, Config.ReadyCap sizes each job's slice of the
// dedicated server's ready buffer. A job that fails
// (retries exhausted, deadline missed) is not an error of the run: it is
// that job's JobResult.Err. The event loop checks ctx between management
// operations and a cancelled run returns an error wrapping ctx.Err() (test
// with errors.Is); a nil ctx behaves like context.Background().
func Run(ctx context.Context, jobs []JobSpec, cfg Config) (*MultiResult, error) {
	s, err := newMstate(ctx, jobs, cfg)
	if err != nil {
		return nil, err
	}
	return s.execute()
}

// newMstate validates cfg and jobs and builds the machine: one scheduler
// per job, the worker table, and whichever of the observer, flight
// recorder, metric set and fault plan cfg asks for.
func newMstate(ctx context.Context, jobs []JobSpec, cfg Config) (*mstate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// failEarly keeps the observer contract — one Final snapshot on
	// every outcome — for runs that die before starting.
	failEarly := func(err error) (*mstate, error) {
		if cfg.Observer != nil {
			cfg.Observer(telemetry.Snapshot{Final: true})
		}
		return nil, err
	}
	if len(jobs) == 0 {
		return failEarly(fmt.Errorf("sim: Run needs at least one job"))
	}
	if cfg.Procs < 1 {
		return failEarly(fmt.Errorf("sim: need at least 1 processor"))
	}
	workers, err := cfg.Mgmt.computing(cfg.Procs)
	if err != nil {
		return failEarly(err)
	}

	s := &mstate{
		ctx:       ctx,
		workers:   workers,
		procs:     cfg.Procs,
		pol:       share.New(workers),
		worker:    make([]mworker, workers),
		parkedB:   newParkedSet(workers),
		parks:     make([]mpark, workers),
		pendingAt: make([]int64, workers),
	}
	s.queue.reserve(workers)
	// Every job's runtime record and phase traces are cut from one slice
	// each.
	phases := 0
	for i := range jobs {
		phases += len(jobs[i].Prog.Phases)
	}
	mjobs, traces := make([]mjob, len(jobs)), make([]PhaseTrace, phases)
	s.jobs = make([]*mjob, 0, len(jobs))
	var totalGranules, totalCost int64
	for i := range jobs {
		spec := jobs[i]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("job%d", i)
		}
		if spec.Weight <= 0 {
			spec.Weight = 1
		}
		opt := spec.Opt
		if opt.Workers <= 0 {
			opt.Workers = workers
		}
		opt = opt.CapGrain(spec.Prog, cfg.PreemptBound)
		sched, err := core.New(spec.Prog, opt)
		if err != nil {
			return failEarly(fmt.Errorf("sim: job %q: %w", spec.Name, err))
		}
		n := len(spec.Prog.Phases)
		j := &mjobs[i]
		*j = mjob{
			spec: spec, sched: sched, phases: resetPhaseTraces(traces[:n:n], spec.Prog),
			pol: share.Job{ID: i, Priority: spec.Priority, Weight: spec.Weight},
			opt: opt, attempts: 1, retriesLeft: spec.Retry, restartAt: -1,
		}
		traces = traces[n:]
		s.jobs = append(s.jobs, j)
		if spec.Deadline > 0 {
			s.hasDeadline = true
		}
		totalGranules += int64(spec.Prog.TotalGranules())
		totalCost += int64(spec.Prog.TotalCost())
	}
	s.obs = newObserver(cfg.Observer, totalCost, workers)
	if cfg.Trace != nil {
		s.tr = bindTrace(cfg.Trace, cfg.Mgmt, workers, s.jobs[0].spec.Prog)
		m := cfg.Trace.Meta()
		m.Jobs = m.Jobs[:0]
		for _, j := range s.jobs {
			m.Jobs = append(m.Jobs, j.spec.Name)
		}
	}
	s.met = cfg.Metrics
	s.m = kinds[cfg.Mgmt].build(s, cfg, totalCost)
	if cfg.Faults != nil {
		s.plan = fault.New(*cfg.Faults)
		s.fails = make([]error, workers)
	}
	s.maxOps = totalGranules*64 + int64(workers)*1024 + 1_000_000
	return s, nil
}

// resetPhaseTraces makes pts, one per phase of prog, prog's per-phase
// traces with nothing scheduled yet, and returns it.
func resetPhaseTraces(pts []PhaseTrace, prog *core.Program) []PhaseTrace {
	for i, ph := range prog.Phases {
		pts[i] = PhaseTrace{Name: ph.Name, Start: -1, End: -1, RundownStart: -1}
	}
	return pts
}

// execute runs the machine to the end and closes the observer stream,
// the trace and the metric set on either outcome.
func (s *mstate) execute() (*MultiResult, error) {
	s.hooked = s.tr != nil || s.met != nil || s.plan != nil
	if err := s.run(); err != nil {
		// Close the observer stream on failure too, with the counters
		// accumulated so far; the trace closes with an abort record.
		if s.tr != nil {
			s.tr.Record(trace.KAbort, s.front, -1, -1, -1, 0, 0, 0)
		}
		s.finishMetrics()
		s.obs.final(s.snapshot(s.front))
		return nil, err
	}
	res := s.result()
	if s.tr != nil {
		s.tr.Record(trace.KFinish, res.Makespan, -1, -1, -1, 0, 0, 0)
	}
	s.finishMetrics()
	s.obs.final(s.snapshot(res.Makespan))
	return res, nil
}

type mstate struct {
	ctx  context.Context
	jobs []*mjob
	// m is the run's management model (model.go), built once by newMstate.
	m       model
	workers int
	procs   int
	obs     *observer
	tr      *trace.Ring    // flight recorder (nil = tracing off)
	met     *telemetry.Set // metric set (nil = metrics off)
	// hooked is the per-event mode word: true when any of tr, met or plan
	// is set. The dispatch and completion paths test it once and keep
	// the recording and injection code out of line.
	hooked bool
	maxOps int64 // runaway guard: the most management operations run serves

	queue      mqueue
	serverFree int64

	// pol is the cross-job dispatch policy: the live job set, the workers
	// not lost to a crash, every worker's home job and the backfill order.
	pol *share.Policy

	worker    []mworker
	parkedB   parkedSet // the workers with parked set, for sparse wake scans
	parkedN   int
	parks     []mpark // each parked worker's open park
	pendingAt []int64 // scheduled wake time of a parked worker; -1 = none

	// readyTotal sums the jobs' cached ready counts; deferredN counts live
	// jobs with cached deferred work. Both are maintained by syncReady so
	// wake and the idle-absorption probe stop scanning every job.
	readyTotal int
	deferredN  int

	// front is the run's virtual-time high-water mark, the makespan
	// result() reports in the end: the last completion event or
	// completion-processing finish, kept as a running max. The management
	// server's own horizon (serverFree) is deliberately excluded — trailing
	// zero-cost asks and deferred absorption can push it past the final
	// makespan, and the observer stream must never report a VirtualTime
	// beyond the Final snapshot's.
	front int64

	idleUnits    int64
	homeless     int64 // the part of idleUnits in parks begun with no home job
	computeUnits int64
	doneUnits    int64 // compute of tasks whose completion event was served
	mgmtUnits    int64

	// Fault injection and tenancy state (see faults.go): the compiled
	// campaign (nil = off), the injected failure each worker's running
	// task will report (allocated with the campaign), whether any job
	// carries a deadline, how many jobs wait out a retry backoff, the retry
	// count, and the measured PreemptBound bound.
	plan            *fault.Plan
	fails           []error
	hasDeadline     bool
	restartN        int
	retries         int64
	maxBackfillTask int
}

// syncReady refreshes job j's cached ready/deferred state and the global
// readyTotal/deferredN counters. Call after every scheduler call that can
// change them (Start, NextTask, Complete, DeferredMgmt) — and after the
// done bit flips, which zeroes the job's contribution.
func (s *mstate) syncReady(j *mjob) {
	r := 0
	d := false
	if !j.done {
		r = j.sched.ReadyTasks()
		d = j.sched.HasDeferred()
	}
	s.readyTotal += r - j.ready
	j.ready = r
	if d != j.hasDef {
		if d {
			s.deferredN++
		} else {
			s.deferredN--
		}
		j.hasDef = d
	}
}

// serve charges cost units of executive time on the serial management
// server starting no earlier than at, and returns the finish time.
func (s *mstate) serve(at int64, cost core.Cost) int64 {
	return s.chargeLane(&s.serverFree, at, cost)
}

// chargeLane charges cost units of executive time on the management lane
// that is next free at *free — the serial server, or a worker's own
// timeline — starting no earlier than at. It moves the lane's horizon to
// the finish time and returns it. The serial lane (phase activation,
// deferred idle-time work) never lags another lane's horizon: without
// that, deferred composite-map builds would be charged in the past —
// overlapping work that already happened.
func (s *mstate) chargeLane(free *int64, at int64, cost core.Cost) int64 {
	fin := max(at, *free) + int64(cost)
	s.mgmtUnits += int64(cost)
	*free = fin
	s.serverFree = max(s.serverFree, fin)
	return fin
}

func (s *mstate) park(w int, at int64) {
	if s.worker[w].parked {
		return
	}
	if s.tr != nil {
		s.tr.Record(trace.KPark, at, int32(w), -1, -1, 0, 0, 0)
	}
	s.m.parking(at)
	s.worker[w].parked = true
	s.parkedB.set(w)
	s.parkedN++
	s.pendingAt[w] = -1
	// The park, and the idle time it lasts, belong to the current phase of
	// the worker's home job now, whatever phase is current when it ends.
	pk := mpark{at: at, job: noJob}
	if h := s.pol.Home(w); h != nil {
		j := s.jobs[h.ID]
		if cur := j.sched.CurrentPhase(); cur < len(j.phases) {
			pk.job, pk.phase = int32(h.ID), int32(cur)
			// Rundown begins with the first park once the phase is handing
			// out work; a park that waits out the phase's serial action
			// comes before.
			if pt := &j.phases[cur]; pt.RundownStart < 0 && pt.Start >= 0 {
				pt.RundownStart = at
			}
		}
	}
	s.parks[w] = pk
}

// mpark is a worker's open park: when it began, and the job and phase its
// idle time is booked to — the phase current for the worker's home job
// when it began (job noJob: the worker had no home job then).
type mpark struct {
	at    int64
	job   int32
	phase int32
}

// closePark books the idle time of worker w's park, ended at time at, to
// the run and to the phase the park began in.
func (s *mstate) closePark(w int, at int64) {
	pk := s.parks[w]
	d := at - pk.at
	if d <= 0 {
		return
	}
	s.idleUnits += d
	if pk.job == noJob {
		s.homeless += d
		return
	}
	s.jobs[pk.job].phases[pk.phase].IdleUnits += d
}

// ask serves a live ask of worker w at time at (the run loop has already
// dropped asks a later wake superseded): it settles the worker's park
// accounting, gives a crash rule its chance, and hands over to the
// management model.
func (s *mstate) ask(w int, at int64) {
	if s.worker[w].parked {
		if s.tr != nil {
			s.tr.Record(trace.KUnpark, at, int32(w), -1, -1, 0, 0, at-s.parks[w].at)
		}
		s.m.parking(at)
		s.worker[w].parked = false
		s.parkedB.clear(w)
		s.parkedN--
		s.pendingAt[w] = -1
		s.closePark(w, at)
	}
	if s.plan != nil && s.maybeCrash(w, at) {
		return // the worker is retired: its ask dies, it never asks again
	}
	s.m.ask(w, at)
}

// wake schedules asks for parked workers at time at, bounded by the
// ready tasks across all unfinished jobs plus whatever the model holds
// that any worker could claim. A worker stays parked until its
// ask is served: a wake carrying a serial-action delay schedules the ask
// in the future, and a later release by ANOTHER job may land inside that
// window — the earlier wake then supersedes the pending one (askGen
// orphans the stale ask). Without this, one job's serial action would
// phantom-occupy workers the other jobs could have used.
func (s *mstate) wake(at int64) {
	if s.parkedN == 0 {
		return
	}
	avail := s.readyTotal + s.m.claimable()
	if avail <= 0 {
		return
	}
	if s.plan != nil && s.plan.DropWakeup() {
		// The wakeup vanishes; the run loop's queue-empty recovery re-wakes.
		s.noteFault(at, -1, -1, fault.DropWakeup)
		return
	}
	// Walk only the parked workers, in ascending order — the order the
	// old full scan visited them — via the bitset.
	for wi := 0; wi < len(s.parkedB.words) && avail > 0; wi++ {
		word := s.parkedB.words[wi]
		for word != 0 && avail > 0 {
			w := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if s.pendingAt[w] >= 0 && s.pendingAt[w] <= at {
				continue // already scheduled no later than this wake
			}
			s.pendingAt[w] = at
			s.worker[w].askGen++
			s.pushAsk(at, w)
			avail--
		}
	}
}

// pushAsk enqueues worker w's ask at time at under its current
// generation.
func (s *mstate) pushAsk(at int64, w int) {
	s.queue.push(mitem{at: at, gen: s.worker[w].askGen, proc: int32(w), job: noJob})
}

// pushDone enqueues the completion of worker w's running task, which
// belongs to attempt gen of job ji.
func (s *mstate) pushDone(at int64, w, ji int, gen int64) {
	s.queue.push(mitem{at: at, gen: gen, proc: int32(w), job: int32(ji)})
}

func (s *mstate) run() error {
	// An already-cancelled context aborts before any work (the in-loop
	// poll is batched and would let a small run finish unobserved).
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled at t=0: %w", err)
	}
	for ji, j := range s.jobs {
		c0 := s.serverFree
		fin := s.serve(s.serverFree, j.sched.Start())
		if j.sched.SerialCost() > 0 {
			j.openAt = fin
		}
		s.syncReady(j)
		if s.tr != nil {
			s.tr.Record(trace.KStart, c0, -1, int32(ji), -1, 0, 0, fin-c0)
		}
		if s.met != nil {
			// Every job is admitted at t=0 — the virtual machine has no
			// admission queue — so queue wait observes zero per job.
			s.met.JobsSubmitted.Inc(0)
			s.met.ActiveJobs.Add(1)
			s.met.QueueWait.Observe(0)
		}
	}
	for _, j := range s.jobs {
		s.pol.Add(&j.pol)
	}
	for _, j := range s.jobs {
		j.homeAt0 = j.pol.Homes()
	}
	for w := 0; w < s.workers; w++ {
		s.pushAsk(s.serverFree, w)
	}

	var ops int64
	for {
		ops++
		if ops > s.maxOps {
			return fmt.Errorf("sim: exceeded %d management operations (runaway?)", s.maxOps)
		}
		// Cooperative cancellation: one ctx poll per batch of management
		// operations, so a cancelled caller gets back promptly without the
		// hot loop paying an atomic load per event.
		if ops&1023 == 0 {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("sim: run canceled at t=%d: %w", s.front, err)
			}
		}
		// A mark that fires here is recorded BEFORE the events this
		// iteration serves — the equal-tick ordering contract (trace.go).
		if s.obs != nil {
			s.observe()
		}

		// Deadline enforcement: a deadlined job is failed exactly AT its
		// deadline once no queued event could finish it in time.
		if s.hasDeadline && s.checkDeadlines() {
			continue
		}
		if s.restartN > 0 && s.restartDue() {
			continue
		}

		// Idle executive moment (nothing due before the management
		// resource frees up): absorb one deferred management item.
		// deferredN gates the probe — the idle condition is common, and
		// without the counter every such event would re-probe all jobs.
		if s.deferredN > 0 && s.absorbDeferred() {
			continue
		}

		if it, ok := s.queue.pop(); ok {
			w := int(it.proc)
			if it.isDone() {
				s.complete(w, int(it.job), it.gen, it.at)
			} else if it.gen == s.worker[w].askGen { // else superseded by an earlier wake
				s.ask(w, it.at)
			}
			continue
		}

		if s.refill(true) {
			continue
		}
		for _, j := range s.jobs {
			if !j.done {
				return fmt.Errorf("sim: stalled at t=%d: queue empty, jobs incomplete", s.serverFree)
			}
		}
		return nil
	}
}

// observe emits one snapshot (s.obs != nil) when the run's frontier has
// crossed the observer's next mark, and flight-records the mark at the same
// deterministic point. Advancing next past the frontier (not by one stride)
// keeps long event gaps from flushing a burst of identical snapshots.
func (s *mstate) observe() {
	o := s.obs
	if s.front < o.next {
		return
	}
	o.fn(s.snapshot(s.front))
	o.next = (s.front/o.stride + 1) * o.stride
	if s.tr != nil {
		s.tr.Record(trace.KMark, s.front, -1, -1, -1, 0, 0, 0)
	}
}

// refill is the empty event queue's recovery, stated once: it reports
// whether the run can still regenerate events from a queue with nothing in
// it, and with act set it does so (one source per call). checkDeadlines and
// restartDue ask without acting — an empty queue the loop can refill is not
// the end of time — and the run loop acts, and is stalled when there is
// nothing to act on and a job unfinished. The sources: deferred management
// (absorbDeferred takes it at the top of the loop's next turn), completions
// backlogged in the model with no worker event left to deliver them, and —
// under a fault campaign — claimable work behind parked workers, which means
// a wake was injected away (the DropWakeup budget bounds repeats; maxOps
// guards the rest).
func (s *mstate) refill(act bool) bool {
	if s.deferredN > 0 || s.m.backlog(act) {
		return true
	}
	if s.plan == nil || s.parkedN == 0 || s.readyTotal+s.m.claimable() <= 0 {
		return false
	}
	if act {
		s.wake(s.serverFree)
	}
	return true
}

// absorbDeferred is the idle executive's moment: when nothing is due
// before the management resource frees up, it absorbs one deferred
// management item from the first unfinished job that has any
// (deterministic order) and reports whether it did.
func (s *mstate) absorbDeferred() bool {
	if next, have := s.queue.peekTime(); have && next < s.serverFree {
		return false
	}
	for _, j := range s.jobs {
		if j.done || !j.hasDef {
			continue
		}
		cost, ok := j.sched.DeferredMgmt()
		s.syncReady(j)
		if ok {
			s.wake(s.serve(s.serverFree, cost))
			return true
		}
	}
	return false
}

// complete handles the completion event of worker w's running task, of
// attempt gen of job ji, surfacing at time at.
func (s *mstate) complete(w, ji int, gen, at int64) {
	j := s.jobs[ji]
	if j.done || gen != j.attempt {
		// Orphaned completion of a retired or restarted attempt: the
		// result is discarded, the worker is freed to ask again.
		s.pushAsk(at, w)
		return
	}
	if s.hooked && !s.completeHooks(w, ji, gen, at) {
		return
	}
	// computeUnits is charged in full at dispatch — it includes in-flight
	// tasks' future work, which would read as utilization above 1 mid-run —
	// so snapshots count a task's compute only here, once its completion
	// event has surfaced.
	s.doneUnits += s.worker[w].flight.dur
	if at > s.front {
		s.front = at
	}
	s.m.complete(w, j, at)
}

// completeHooks is complete's out-of-line half for runs with a fault
// campaign, a flight recorder or a metric set. It reports false when a
// fault consumed the event.
func (s *mstate) completeHooks(w, ji int, gen, at int64) bool {
	if s.plan != nil {
		if fail := s.fails[w]; fail != nil {
			// The completion carries an injected grain failure: retry the
			// job or retire it; co-tenants keep running.
			s.failJob(ji, at, w, fail, true)
			return false
		}
		// A management-delay fault withholds this completion's submission
		// to the executive: the event re-queues Delay later (the rule's
		// budget bounds the re-queues).
		if d, ok := s.plan.Mgmt(ji, at); ok {
			s.noteFault(at, w, ji, fault.MgmtDelay)
			s.pushDone(at+d, w, ji, gen)
			return false
		}
	}
	// One chokepoint records EVERY model's completions (the models
	// diverge), before the scheduler absorbs the event — so dispatches it
	// enables carry larger Seqs.
	if s.tr != nil {
		f := &s.worker[w].flight
		s.tr.Record(trace.KComplete, at, int32(w), int32(ji),
			int32(f.task.Phase), uint32(f.task.Run.Lo), uint32(f.task.Run.Hi), f.dur)
	}
	if s.met != nil {
		s.met.Completions.Inc(w)
	}
	return true
}

// walk is the one candidate walk: worker w, whose ask was issued at asked
// and has reached time at, offers itself to the jobs in dispatch-policy
// order (home first, then the backfill order), skipping a job whose
// between-phase serial action is still running, and asks the model to probe
// each. The first probe that yields a task is dispatched — a task of a
// job other than the worker's home is backfill and draws that job's credit
// — and walk returns the job and the dispatch time. When every candidate
// is dry the worker parks, at the time the model says the dry walk ended,
// and walk returns nil.
func (s *mstate) walk(w int, asked, at int64) (*mjob, int64) {
	reopen := int64(-1)
	wk := s.pol.Start(w)
	for c := s.pol.Next(&wk); c != nil; c = s.pol.Next(&wk) {
		j := s.jobs[c.ID]
		if at < j.openAt {
			// The job's between-phase serial action is still running.
			if reopen < 0 || j.openAt < reopen {
				reopen = j.openAt
			}
			continue
		}
		task, drawn, fin, ok := s.m.probe(w, j, at)
		if !ok {
			at = fin
			continue
		}
		backfill := c != wk.Home
		if backfill {
			s.pol.Charge(c, drawn)
		}
		if s.met != nil {
			s.met.DispatchWait.Observe(fin - asked)
		}
		s.dispatch(w, c.ID, backfill, task, fin)
		return j, fin
	}
	s.park(w, s.m.dry(w, at))
	// A candidate skipped because its serial action was still running
	// reopens at a known time (reopen is the earliest), so the worker
	// schedules its own retry for it — the wake that announced the gated
	// work ran when openAt was set and cannot see workers that park later.
	if reopen >= 0 {
		s.pendingAt[w] = reopen
		s.worker[w].askGen++
		s.pushAsk(reopen, w)
	}
	return nil, at
}

// dispatch starts task, of job ji, on worker at time at: it prices the
// task, records it as the worker's running task and schedules its
// completion.
func (s *mstate) dispatch(worker, ji int, backfill bool, task core.Task, at int64) {
	j := s.jobs[ji]
	dur := int64(j.sched.TaskCost(task))
	var lag int64 // completion-event delay (stuck grain / wedged worker)
	if s.hooked {
		dur, lag = s.dispatchHooks(worker, ji, backfill, task, at, dur)
	}
	end := at + dur
	s.computeUnits += dur
	j.compute += dur
	if backfill {
		j.backfill += dur
		if n := task.Run.Len(); n > s.maxBackfillTask {
			s.maxBackfillTask = n
		}
	}
	pt := &j.phases[task.Phase]
	if pt.Start < 0 || at < pt.Start {
		pt.Start = at
	}
	pt.Dispatched++
	// Overlap attribution: compute performed for a non-current phase
	// fills the current phase's rundown.
	if cur := j.sched.CurrentPhase(); cur < len(j.phases) && granule.PhaseID(cur) != task.Phase {
		j.phases[cur].OverlapUnits += dur
	}
	if end+lag > s.worker[worker].free {
		s.worker[worker].free = end + lag
	}
	s.worker[worker].flight = mflight{task: task, dur: dur}
	s.pushDone(end+lag, worker, ji, j.attempt)
}

// dispatchHooks is dispatch's out-of-line half for runs with a fault
// campaign, a flight recorder or a metric set: it applies the
// dispatch injection (returning the possibly stretched cost and the
// completion-event lag, and parking an injected failure in s.fails for
// the completion to report) and records the dispatch.
func (s *mstate) dispatchHooks(worker, ji int, backfill bool, task core.Task, at, dur int64) (int64, int64) {
	var lag int64
	if s.plan != nil {
		dur, lag, s.fails[worker] = s.inject(worker, ji, task, at, dur)
	}
	if s.tr != nil {
		s.tr.Record(trace.KDispatch, at, int32(worker), int32(ji),
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
		if backfill {
			s.tr.Record(trace.KBackfill, at, int32(worker), int32(ji),
				int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
		}
	}
	if s.met != nil {
		s.met.Dispatches.Inc(worker)
		if backfill {
			s.met.Backfill.Inc(worker)
		}
	}
	return dur, lag
}

// phaseEnd extends phase p's window to at: a completion of one of its
// tasks surfaced, or finished processing, then.
func (j *mjob) phaseEnd(p granule.PhaseID, at int64) {
	if pt := &j.phases[p]; at > pt.End {
		pt.End = at
	}
}

// completeBatch applies the fused completion batch ts of job j on the
// serialized server, starting no earlier than at, and returns the finish
// time.
func (s *mstate) completeBatch(j *mjob, ts []core.Task, at int64) int64 {
	serial0 := j.sched.SerialCost()
	fin := s.serve(at, j.sched.CompleteBatch(ts))
	for _, t := range ts {
		j.phaseEnd(t.Phase, fin)
	}
	s.applied(j, serial0, fin)
	return fin
}

// applied is the bookkeeping every model's completion path shares, once job
// j's scheduler has absorbed completions whose processing finished at fin:
// a serial action they started (SerialCost grew past serial0) gates the
// job's dispatch until fin, the job's makespan and the run's frontier
// advance, and a job whose scheduler just finished leaves the dispatch
// policy's live set, which hands its home workers to the jobs still running.
func (s *mstate) applied(j *mjob, serial0 core.Cost, fin int64) {
	if j.sched.SerialCost() > serial0 && fin > j.openAt {
		j.openAt = fin
	}
	if fin > j.makespan {
		j.makespan = fin
		if fin > s.front {
			s.front = fin
		}
	}
	if !j.done && j.sched.Done() {
		j.done = true
		if s.met != nil {
			s.met.JobsDone.Inc(0)
			s.met.ActiveJobs.Add(-1)
			// A deadlined job reaching here beat its deadline (a miss is
			// aborted AT the deadline and never arrives); the margin is the
			// budget it had left.
			if j.spec.Deadline > 0 {
				s.met.DeadlineMargin.Observe(j.spec.Deadline - j.makespan)
			}
		}
		s.pol.Remove(&j.pol)
	}
	s.syncReady(j) // after the done bit, which zeroes the job's contribution
}

// snapshot builds an observation of the run at virtual time at. Every job
// is submitted at t=0 and none waits for admission, so ActiveJobs counts
// the still-unfinished jobs: a live observer watches the tenancy drain and
// the Final snapshot reads "drained" exactly as the pool's does. Compute
// counts completed tasks only (see complete).
func (s *mstate) snapshot(at int64) telemetry.Snapshot {
	sn := telemetry.Snapshot{
		VirtualTime: at,
		Jobs:        len(s.jobs),
		Compute:     time.Duration(s.doneUnits),
		Mgmt:        time.Duration(s.mgmtUnits),
		Idle:        time.Duration(s.idleUnits),
	}
	for _, j := range s.jobs {
		sn.Tasks += j.sched.Dispatches()
		if !j.done {
			sn.ActiveJobs++
		}
	}
	sn.Batch, _ = s.m.batch()
	sn.Utilization, sn.OverheadShare = telemetry.Shares(s.doneUnits, s.mgmtUnits, s.procs, at)
	return sn
}

func (s *mstate) result() *MultiResult {
	makespan := s.front
	for w := range s.worker {
		if s.worker[w].parked {
			s.worker[w].parked = false
			s.closePark(w, makespan)
		}
	}
	res := &MultiResult{
		Makespan:     makespan,
		ComputeUnits: s.computeUnits,
		MgmtUnits:    s.mgmtUnits,
		IdleUnits:    s.idleUnits,
		Workers:      s.workers,
		Procs:        s.procs,
	}
	res.Batch, res.BatchChanges = s.m.batch()
	res.Faults = s.plan.Injected()
	res.Retries = s.retries
	res.MaxBackfillTask = s.maxBackfillTask
	res.Jobs = make([]JobResult, 0, len(s.jobs))
	for _, j := range s.jobs {
		res.BackfillUnits += j.backfill
		res.Jobs = append(res.Jobs, JobResult{
			Name:          j.spec.Name,
			Makespan:      j.makespan,
			ComputeUnits:  j.compute,
			BackfillUnits: j.backfill,
			HomeWorkers:   j.homeAt0,
			Sched:         j.sched.Stats(),
			Err:           j.err,
			Attempts:      j.attempts,
			Phases:        j.phases,
		})
	}
	res.Utilization, _ = telemetry.Shares(s.computeUnits, 0, s.procs, makespan)
	return res
}

// finishMetrics flushes the run's accumulated time-split totals into the
// metric set on any outcome — once, at the end, so the hot serve path
// stays metric-free.
func (s *mstate) finishMetrics() {
	if s.met == nil {
		return
	}
	s.met.ComputeTime.Add(0, s.computeUnits)
	s.met.MgmtTime.Add(0, s.mgmtUnits)
	s.met.IdleTime.Add(0, s.idleUnits)
	var backfill int64
	for _, j := range s.jobs {
		backfill += j.backfill
	}
	s.met.BackfillTime.Add(0, backfill)
}
