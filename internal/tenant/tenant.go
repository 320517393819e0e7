// Package tenant is the multi-tenant worker pool: several core.Programs
// run concurrently on one set of worker goroutines, so one job's rundown
// is filled by another job's work. The paper's introduction dismisses this
// "batch" environment because statically splitting a machine between job
// streams lengthens each job's elapsed time (E9 reproduces the trade-off);
// the pool avoids the static split. Its dispatch policy is overlap-first:
//
//   - every worker has a home job (weighted share of the workers per job)
//     and serves it exclusively while the home job has anything
//     dispatchable — phase overlap inside the job keeps its makespan as
//     short as running alone;
//   - only when the home job is in rundown (nothing dispatchable even
//     after absorbing deferred management) does the worker take foreign
//     work, chosen by priority and then backfill credit, so backfill
//     capacity is shared fairly among the other jobs.
//
// The policy itself is internal/share, the same object the virtual-time
// engine drives.
//
// Each job owns its own core.Scheduler state machine wrapped in its own
// executive Manager (every kind, through the one executive.Manager
// contract); the pool owns the worker loop — the only one on hardware, a
// Runner.Run is a one-job pool — cross-job dispatch, parking, stall
// detection, and lifecycle. Layering: pool above manager above state
// machine.
package tenant

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/share"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes a pool.
type Config struct {
	// Workers is the number of shared worker goroutines (>= 1).
	Workers int
	// Manager selects the per-job management layer (SerialManager
	// default). Every job in the pool uses the same kind. An async pool
	// runs one management goroutine per job beside the shared workers.
	Manager executive.ManagerKind
	// DequeCap and Batch parameterize the sharded and async managers per
	// job (see executive.Config); ignored by the serial manager.
	DequeCap int
	// Batch is the completion batch size of the sharded and async
	// managers.
	Batch int
	// Observer, when non-nil, receives periodic pool-level snapshots
	// sampled on a dedicated goroutine for the pool's lifetime, plus one
	// Final snapshot from Close. The callback must not block for long.
	Observer func(telemetry.Snapshot)
	// ObservePeriod is the sampling period; <= 0 selects 10ms. Ignored
	// without Observer.
	ObservePeriod time.Duration
	// Trace, when non-nil, flight-records the pool's scheduling decisions:
	// per-task dispatch/completion (with the owning job's index and a
	// backfill marker), pool-level park/unpark, and per-job start/finish/
	// abort. Recording happens at pool level — the layer that knows which
	// job a task belongs to — into per-worker rings with no
	// synchronization; merge with Recorder.Take, or read one job's schedule
	// with Job.Trace, at any time.
	Trace *trace.Recorder
	// MaxActive is the admission high-water mark: at most this many jobs
	// run concurrently (0 = unlimited), a job waiting out a retry backoff
	// counted with the running ones. A Submit above the mark fails with
	// ErrPoolSaturated, or queues when Queue is set; queued jobs activate
	// in submit order as active jobs finish.
	MaxActive int
	// Queue makes a saturated Submit enqueue the job instead of rejecting
	// it. Ignored without MaxActive.
	Queue bool
	// Admit, when non-nil, is consulted by Submit before the MaxActive
	// check, under the pool lock, with a consistent view of the pool's
	// load. A non-nil return rejects the job: Submit wraps the error with
	// the job name, so a caller-defined sentinel (or errors.As target)
	// survives to the submitter. The predicate must be fast and must not
	// call back into the pool.
	Admit AdmitFunc
	// DynamicFaults pre-arms an empty fault plan (and the stall watchdog)
	// so rules can be injected into the live pool via InjectFaults — the
	// staging path for a service daemon, where a fault campaign arrives
	// with a job submitted to an already-running pool. Ignored when Faults
	// already arms a plan.
	DynamicFaults bool
	// PreemptBound caps every job's task grain at this many granules: the
	// largest non-preemptible unit any worker can hold, bounding how long
	// a job emerging from rundown waits behind an in-flight foreign grain
	// (0 = no cap). Report.MaxBackfillTask measures the enforcement.
	PreemptBound int
	// StallTimeout arms the pool watchdog: a job with tasks in flight and
	// no dispatch or completion for this long is failed as wedged (and
	// retried if it has retries left), and each watchdog tick re-wakes
	// parked workers — the recovery path for a dropped wakeup. 0 selects a
	// default when Faults is set and disables the watchdog otherwise;
	// negative always disables it.
	StallTimeout time.Duration
	// Faults, when non-nil, arms deterministic fault injection: the same
	// Spec the simulator prices in virtual time strikes the pool's real
	// goroutines at the matching chokepoints (Rule.After is wall-clock
	// nanoseconds since pool start; delays are bounded by fault.Sleep).
	Faults *fault.Spec
	// Metrics, when non-nil, is the telemetry set the pool records into:
	// per-worker dispatch/completion/backfill counters, the queue-wait,
	// dispatch-wait and deadline-margin histograms, job lifecycle
	// counters, and — through the per-job managers — steal counters and
	// ready-buffer occupancy. All durations are wall-clock nanoseconds. The
	// metrics-off fast path is one nil check per event.
	Metrics *telemetry.Set
}

// JobConfig describes one submitted job.
type JobConfig struct {
	// Name labels the job in reports and errors ("jobN" default).
	Name string
	// Priority orders backfill: spare capacity goes to dispatchable jobs
	// of the highest priority first. Higher is more important; equal
	// priorities share by backfill credit (share.Quantum per weight unit).
	Priority int
	// Weight is the job's share of home workers and of backfill credit
	// within its priority class (<= 0 selects 1).
	Weight int
	// Deadline bounds the job's submit-to-finish wall time (0 = none). A
	// job past its deadline is aborted — only that job — with an error
	// wrapping context.DeadlineExceeded; queue wait under admission
	// control counts against it. Deadline aborts never retry.
	Deadline time.Duration
	// Retry is how many times a failed attempt (work error, panic, wedge)
	// restarts on a fresh scheduler before the error sticks (0 = none).
	Retry int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it, capped at 64× (0 = retry immediately).
	Backoff time.Duration
	// Class is the job's service class label ("" = unclassified). The pool
	// attaches no semantics beyond exposing it to Config.Admit and
	// recording per-class submitted/rejected/done counters in the metric
	// set; the service layer defines classes like "latency" on top.
	Class string
	// Tolerance is the class-specific admission tolerance (for the
	// "latency" class, the projected slowdown budget in percent). Opaque
	// to the pool; carried to Config.Admit.
	Tolerance float64
}

// Pool is a shared worker pool running several jobs concurrently. Workers
// are spawned by NewPool and live until Close.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []*Job        // every submitted job, submit order
	active  []*Job        // incomplete jobs, activation order
	waitq   []*Job        // admitted-but-queued jobs (admission control), submit order
	pol     *share.Policy // dispatch policy over the active jobs and the workers no WorkerCrash took
	closed  bool
	stalled int // jobs failed by the pool stall detector
	// backoff holds the jobs between attempts, each with its pending retry
	// timer. Workers must not exit — and Close must not join them — while
	// a retry is outstanding, even with the active set empty.
	backoff map[*Job]*time.Timer

	// epoch bumps (under mu) whenever pol re-apportions the homes, so workers
	// can cache their home job and re-read only on change.
	epoch atomic.Uint64
	// gen counts progress events — what a parked or parking worker must
	// hear about: completions applied to a state machine, a job activated,
	// backed off or retired, a manager's notify. A dispatch is not one:
	// nothing a dry sweep missed became dispatchable by it. A worker parks
	// only if gen is unchanged since its dry sweep began; see park.
	gen atomic.Uint64
	// nWaiting counts workers inside cond.Wait. Modified only under mu,
	// read lock-free by progress to skip the broadcast when nobody waits.
	nWaiting atomic.Int32

	wg      sync.WaitGroup
	start   time.Time
	startAt clock.Stamp // start on the interval clock: the fault plan's time origin
	end     time.Time   // set by Close after the workers join

	sampler *sampler // the Observer's ticker (nil without an Observer)

	// plan is the compiled fault campaign (nil when Config.Faults is nil:
	// one nil check per task on the fault-free hot path).
	plan *fault.Plan
	// watch is the stall watchdog's ticker (nil when disarmed); armed, it
	// gates fault kinds (dropped wakeups, unbounded wedges) that need the
	// watchdog to recover.
	watch *sampler
	// stamped says something consumes per-task clock stamps — a recorder, a
	// metric set, an armed fault plan, an armed watchdog — so runTask takes
	// them for every task; without any of those only backfill tasks are
	// stamped (see runTask). Fixed at NewPool.
	stamped bool

	closeOnce sync.Once
	closeRep  *Report
	closeErr  error

	idleNS          atomic.Int64
	backfillTasks   atomic.Int64
	backfillCompute atomic.Int64
	retries         atomic.Int64
	maxBackfillTask atomic.Int64

	// met is Config.Metrics (nil = metrics off). metMu/mgmtSeen serialize
	// the management-time mirror between the sampler goroutine and Close
	// (see noteMgmt).
	met      *telemetry.Set
	metMu    sync.Mutex
	mgmtSeen int64
}

// NewPool starts cfg.Workers worker goroutines and returns the pool,
// ready for Submit. Close releases the workers.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("tenant: need at least 1 worker")
	}
	if _, err := executive.ParseManager(cfg.Manager.String()); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	p := &Pool{
		cfg:     cfg,
		pol:     share.New(cfg.Workers),
		backoff: make(map[*Job]*time.Timer),
		start:   time.Now(),
		startAt: clock.Now(),
		met:     cfg.Metrics,
	}
	p.cond = sync.NewCond(&p.mu)
	if rec := cfg.Trace; rec != nil {
		m := rec.Meta()
		if m.Backend == "" {
			m.Backend = "pool"
		}
		m.Manager = cfg.Manager.String()
		m.Workers = cfg.Workers
		m.TimeUnit = trace.UnitNanos
	}
	if cfg.Observer != nil {
		period := cfg.ObservePeriod
		if period <= 0 {
			period = defaultObservePeriod
		}
		p.sampler = startSampler(period, func() { cfg.Observer(p.snapshot()) })
	}
	if cfg.Faults != nil {
		p.plan = fault.New(*cfg.Faults)
	}
	if p.plan == nil && cfg.DynamicFaults {
		p.plan = fault.NewDynamic(fault.Spec{})
	}
	timeout := cfg.StallTimeout
	if timeout == 0 && p.plan != nil {
		timeout = defaultStallTimeout
	}
	if timeout > 0 {
		p.watch = startSampler(max(timeout/4, time.Millisecond), func() { p.watchdog(timeout) })
	}
	p.stamped = cfg.Trace != nil || p.met != nil || p.plan != nil || p.watch != nil
	p.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			// The pprof label ties profile samples to the worker index the
			// metric shards and trace rings use; the worker adds a job
			// label per job switch when metrics are on.
			pprof.Do(context.Background(),
				pprof.Labels("rundown_worker", strconv.Itoa(w)),
				func(ctx context.Context) { p.worker(ctx, w) })
		}(w)
	}
	return p, nil
}

// Submit adds a job to the pool and activates it immediately — unless
// admission control is at its high-water mark, in which case the job is
// rejected (ErrPoolSaturated) or queued. opt.Workers defaults to the
// pool's worker count (it only informs the scheduler's grain and subset
// defaults); Config.PreemptBound caps the resulting task grain.
func (p *Pool) Submit(prog *core.Program, opt core.Options, jc JobConfig) (*Job, error) {
	if opt.Workers <= 0 {
		opt.Workers = p.cfg.Workers
	}
	opt = opt.CapGrain(prog, p.cfg.PreemptBound)
	if jc.Weight <= 0 {
		jc.Weight = 1
	}
	j := &Job{
		pool: p, cfg: jc, prog: prog, opt: opt,
		done: make(chan struct{}), submitted: time.Now(),
	}
	first, err := p.newAttempt(j, nil)
	if err != nil {
		return nil, err
	}
	j.cur.Store(first)
	j.attempts.Store(1)
	j.retriesLeft = jc.Retry

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("tenant: submit %q: %w", jc.Name, ErrPoolClosed)
	}
	j.idx = len(p.jobs)
	j.pol = share.Job{ID: j.idx, Priority: jc.Priority, Weight: jc.Weight}
	if j.cfg.Name == "" {
		j.cfg.Name = fmt.Sprintf("job%d", j.idx)
	}
	if p.cfg.Admit != nil {
		if err := p.cfg.Admit(j.cfg, p.admissionViewLocked()); err != nil {
			p.mu.Unlock()
			p.classInc(j.cfg.Class, classRejected)
			return nil, fmt.Errorf("tenant: submit %q: %w", j.cfg.Name, err)
		}
	}
	if p.cfg.MaxActive > 0 && p.activeLocked() >= p.cfg.MaxActive && !p.cfg.Queue {
		p.mu.Unlock()
		p.classInc(j.cfg.Class, classRejected)
		return nil, fmt.Errorf("tenant: submit %q: %d jobs active: %w",
			j.cfg.Name, p.cfg.MaxActive, ErrPoolSaturated)
	}
	if rec := p.cfg.Trace; rec != nil {
		// Job names accumulate in submit order (p.mu makes the order the
		// index order), matching the Job column of the records.
		rec.AddJob(j.cfg.Name)
	}
	p.jobs = append(p.jobs, j)
	if p.cfg.MaxActive > 0 && p.activeLocked() >= p.cfg.MaxActive {
		// Admitted but queued: the manager starts when a slot frees (a
		// job waiting out a retry backoff keeps its slot).
		p.waitq = append(p.waitq, j)
	} else {
		p.activate(j, Queued)
	}
	// The deadline clock starts at Submit — queue wait under admission
	// control counts against it. A deadline abort never retries.
	if d := jc.Deadline; d > 0 {
		j.deadline = time.AfterFunc(d, func() {
			j.Abort(fmt.Errorf("tenant: job %q exceeded its deadline of %v: %w",
				j.cfg.Name, d, context.DeadlineExceeded))
		})
	}
	p.mu.Unlock()

	if p.met != nil {
		p.met.JobsSubmitted.Inc(0)
	}
	p.classInc(jc.Class, classSubmitted)
	p.progress()
	return j, nil
}

// Close marks the pool as accepting no more jobs, lets every submitted
// job run to completion (including queued jobs and pending retries),
// joins the workers, and returns the pool report. The error is the first
// job error in submit order, if any. Close is idempotent and safe to
// call concurrently with Submit and Abort: every call returns the same
// report and error.
func (p *Pool) Close() (*Report, error) {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
		// Release every injected wedge: captive workers submit their
		// withheld completions (dropped if their attempt was already
		// failed) and rejoin the loop, so teardown never hangs on a fault.
		p.plan.ReleaseAll()
		p.wg.Wait()
		p.watch.stop()
		// Joined before the end reading, so no live sample reports a later
		// Elapsed than the Final snapshot's.
		p.sampler.stop()
		p.end = time.Now()

		for _, j := range p.jobs {
			if j.err != nil {
				p.closeErr = fmt.Errorf("tenant: job %q: %w", j.cfg.Name, j.err)
				break
			}
		}
		fin := p.tally(p.jobs, p.end.Sub(p.start))
		p.closeRep = p.report(fin)
		p.noteMgmt(int64(fin.Mgmt))
		if p.cfg.Observer != nil {
			fin.Final = true
			p.cfg.Observer(fin)
		}
	})
	return p.closeRep, p.closeErr
}

// Abort fails every unfinished job with err — running, queued or between
// attempts; pending retries are cancelled and finished jobs keep their
// results — releasing their workers and waiters; the pool itself
// survives and Close still returns normally. It is the pool's
// cancellation point: a caller whose context fires aborts the pool with
// an error wrapping ctx.Err(), and every outstanding Job.Wait returns
// that error.
func (p *Pool) Abort(err error) {
	p.mu.Lock()
	victims := append(append([]*Job(nil), p.active...), p.waitq...)
	for j := range p.backoff {
		victims = append(victims, j)
	}
	// The queue is emptied first: a slot freed below must not start a job
	// this abort is about to fail.
	p.waitq = nil
	for _, j := range victims {
		p.kill(j, err)
	}
	p.mu.Unlock()
	p.progress()
}

// worker is the shared goroutine body: serve the home job while it has
// work, backfill foreign jobs during the home job's rundown, park when
// nothing is dispatchable anywhere. ctx carries the goroutine's pprof
// worker label; a job label is layered on per job switch when metrics
// are on.
//
// A home task enters its job's executive once: the completion and the ask
// for the next home task are one Enter, the way a PAX processor entered
// the executive, and the task it hands back runs without a sweep. A backfill task
// — or a home task finished after the home assignment changed — completes
// with AskNone and the worker sweeps again, home first, so dispatch stays
// overlap-first.
//
// The worker keeps one clock chain (see internal/clock): now is its
// latest reading, replaced by the stamp each manager call returns — zero
// while a compute stretch runs on unread (see runTask). A manager entered
// without contention charges from the stamp it is handed, so the chain is
// handed on only where nothing that can block sits between the reading and
// the call (the probes within one sweep, the completing Enter — its one
// intervening step, the trace record, is a store into the worker's own ring
// that no reader can delay, and an injected MgmtDelay sleeps there in order
// to be charged as management); the sweep starts from a fresh reading,
// because pool-level work that can block sits before it (see sweep).
func (p *Pool) worker(ctx context.Context, w int) {
	defer p.wg.Done()
	var cache homeCache
	var labeled *Job // job currently named in this goroutine's pprof labels
	// The attempt the previous task was taken from: the sweep flushes this
	// worker's batched completions there before it asks another attempt for
	// work (see sweep). After a retry swaps a fresh attempt into the job the
	// batch still belongs to the old (aborted) one and is flushed there,
	// where the post-failure gate drops it.
	var last *attempt
	now := clock.Now()
	for {
		g0 := p.gen.Load()
		asked := now
		a, task, backfill, at, ok := p.sweep(w, &cache, last)
		now, last = at, a
		if !ok {
			// Dry sweep: every active job's probe flushed this worker's
			// batch and found nothing dispatchable.
			var exit bool
			if exit, now = p.park(w, g0, now); exit {
				return
			}
			continue
		}
		for ok {
			if p.met != nil {
				if a.job != labeled {
					labeled = a.job
					pprof.SetGoroutineLabels(pprof.WithLabels(ctx,
						pprof.Labels("rundown_job", labeled.cfg.Name)))
				}
				// Ask-to-dispatch: from the worker's previous compute-end on
				// the home path — the whole executive entry — and from its
				// previous completion (or wakeup) when a sweep found the
				// task, lock waits and dry probes of other jobs included.
				// Time parked is not: a parked worker waits for work to
				// exist, not on management, and the service's latency-class
				// admission reads this histogram's p99 as the delay the pool
				// imposes on a task.
				p.met.DispatchWait.Observe(int64(now - asked))
			}
			var ran, crash bool
			if now, ran, crash = p.runTask(w, a, task, backfill, now); !ran {
				break
			}
			if crash && p.crash(w, a, task, now) {
				return
			}
			// The home assignment is unchanged when the pool's epoch is: a
			// retry, a retirement, a crash or a new job all re-apportion.
			ask := executive.AskNone
			if !backfill && cache.epoch == p.epoch.Load() {
				ask = executive.AskTry
			}
			asked = now
			task, now, ok = p.enter(w, a, task, now, ask)
		}
	}
}

// runTask executes task outside every lock and records it, up to the
// point where the completion is due at a's manager. Panics in user work
// fail the attempt, not the pool: ran=false means the attempt was aborted
// and there is no completion to submit. crash is an injected WorkerCrash's
// verdict on the worker (see crash).
//
// The task is stamped — now is its dispatch stamp, the start of its compute
// interval, and the stamp returned is the reading taken when its work (and
// any injected stall or wedge, which count as its compute) ended, the one
// the completing Enter is charged from; an armed plan reads once more,
// after its consultation (see delayCompletion) — only when something
// consumes the stamps: the pool's recorder, metric set, fault plan or
// watchdog (stamped), or the backfill accounting. Otherwise the worker's
// time does not change category here: the clock is not read, nothing shared is written, the
// stamp returned is zero, and the job's manager reads the clock when it
// next does management (executive.Manager, "Clock discipline"). The task's
// time and count are totalled by the manager either way.
func (p *Pool) runTask(w int, a *attempt, task core.Task, backfill bool, now clock.Stamp) (end clock.Stamp, ran, crash bool) {
	j := a.job
	work := j.prog.Phases[task.Phase].Work
	if !p.stamped && !backfill {
		return 0, p.ran(a, executive.RunTask(work, task)), false
	}
	if p.watch != nil {
		j.lastTouch.Store(int64(now))
	}
	if p.met != nil {
		p.met.Dispatches.Inc(w)
	}
	var ring *trace.Ring
	if rec := p.cfg.Trace; rec != nil {
		ring = rec.Ring(w)
		ring.Record(trace.KDispatch, rec.At(now), int32(w), int32(j.idx),
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), 0)
		if backfill {
			ring.Record(trace.KBackfill, rec.At(now), int32(w), int32(j.idx),
				int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), 0)
		}
	}
	var fx fault.Effects
	var err error
	if p.plan != nil {
		fx, err = p.injectTask(w, j, task, &work)
	}
	if err == nil {
		err = executive.RunTask(work, task)
	}
	end = clock.Now()
	if !p.ran(a, err) {
		return end, false, false
	}
	if fx.Factor > 1 {
		fault.Stretch(end.Sub(now), fx.Factor)
		end = clock.Now()
	}
	if fx.Stall > 0 || fx.Wedged {
		p.holdCompletion(fx)
		end = clock.Now()
	}
	dur := end.Sub(now)
	if p.met != nil {
		p.met.ComputeTime.Add(w, int64(dur))
		p.met.Completions.Inc(w)
	}
	if backfill {
		j.backfillTasks.Add(1)
		j.backfillCompute.Add(int64(dur))
		p.backfillTasks.Add(1)
		p.backfillCompute.Add(int64(dur))
		if p.met != nil {
			p.met.Backfill.Inc(w)
			p.met.BackfillTime.Add(w, int64(dur))
		}
		n := int64(task.Run.Len())
		for {
			cur := p.maxBackfillTask.Load()
			if n <= cur || p.maxBackfillTask.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	// Recorded BEFORE the completion is submitted to management, so any
	// dispatch it enables carries a larger Seq (the causal edge replay
	// and diff rely on).
	if ring != nil {
		ring.Record(trace.KComplete, p.cfg.Trace.At(end), int32(w), int32(j.idx),
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), int64(dur))
	}
	if p.watch != nil {
		j.lastTouch.Store(int64(end))
	}
	if p.plan != nil {
		end = p.delayCompletion(w, j)
	}
	return end, true, fx.Crash
}

// ran reports whether a task's work returned without error; one that did not
// — a work error, a panic, an injected failure — fails its attempt with an
// error a retry may cure.
func (p *Pool) ran(a *attempt, err error) bool {
	if err != nil {
		a.mgr.Abort(transient{err})
		p.settle(a)
	}
	return err == nil
}

// crash retires worker w for good — fault.WorkerCrash, graceful capacity
// loss — at the fused entry's chokepoint, between its two halves: the task
// in hand is completed with AskNone and the worker's batch flushed, so no
// task is lost and none is taken that will not run (tasks left in its
// sharded deque stay stealable). The worker leaves the census the
// all-parked probe counts against and the home assignment. The last live
// worker refuses: the rule is consumed but ignored.
func (p *Pool) crash(w int, a *attempt, task core.Task, at clock.Stamp) bool {
	p.mu.Lock()
	if p.pol.LiveWorkers() == 1 {
		p.mu.Unlock()
		return false
	}
	p.pol.RetireWorker(w)
	p.epoch.Add(1)
	p.mu.Unlock()
	_, at, _ = p.enter(w, a, task, at, executive.AskNone)
	if _, applied := a.mgr.Flush(w, at); applied {
		p.settle(a)
	}
	p.noteFault(w, a.job.idx, fault.WorkerCrash)
	p.progress() // the survivors re-sweep, and re-probe against the new census
	return true
}

// progress records a progress event and wakes parked workers. The
// broadcast is skipped lock-free when nobody waits, so the hot path costs
// one atomic add and one atomic load per task.
func (p *Pool) progress() {
	p.gen.Add(1)
	if p.nWaiting.Load() > 0 {
		// An injected dropped wakeup suppresses exactly this broadcast;
		// the watchdog's periodic re-wake is the recovery path, so the
		// fault is only consumed while the watchdog is armed.
		if p.plan != nil && p.watch != nil && p.plan.DropWakeup() {
			if rec := p.cfg.Trace; rec != nil {
				rec.Emit(trace.KFault, rec.Now(), -1, -1, -1, 0, 0, int64(fault.DropWakeup))
			}
			return
		}
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// park parks worker w until progress, unless progress already happened
// since the worker's dry sweep began (gen != g0). It returns true when
// the worker should exit: the pool is closed and every job has finished.
//
// Ordering: nWaiting is published before gen is re-checked, and progress
// bumps gen before reading nWaiting — so either the parker sees the new
// gen and retries, or the producer sees the waiter and broadcasts. The
// broadcast serializes behind mu, which the parker holds until cond.Wait
// releases it, so the wakeup cannot be lost.
//
// at is the worker's latest reading — the end of its dry sweep — and is
// where the idle interval starts; the reading taken on wakeup ends it and
// is returned.
func (p *Pool) park(w int, g0 uint64, at clock.Stamp) (exit bool, now clock.Stamp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed && len(p.active) == 0 && len(p.waitq) == 0 && len(p.backoff) == 0 {
		p.cond.Broadcast()
		return true, at
	}
	p.nWaiting.Add(1)
	if p.gen.Load() != g0 {
		p.nWaiting.Add(-1)
		return false, at
	}
	if int(p.nWaiting.Load()) == p.pol.LiveWorkers() && len(p.active) > 0 {
		// Every live worker swept every active job dry at a stable gen: all
		// deques are empty and every completion batch was flushed, so an
		// unfinished job with nothing in flight can never make progress —
		// a true stall. Fail those jobs; the pool itself survives.
		var stalled []*Job // collected first: retiring one edits p.active
		for _, j := range p.active {
			if j.cur.Load().mgr.InFlight() == 0 {
				stalled = append(stalled, j)
			}
		}
		if probed != nil {
			probed(len(stalled))
		}
		for _, j := range stalled {
			// A manager that refuses the abort finished, it did not stall:
			// its final completion landed (async drain) between the dry
			// sweep and this probe, and settle retires it with its results.
			a := j.cur.Load()
			a.mgr.Abort(fmt.Errorf("tenant: job %q stalled at phase %d: all pool workers idle, nothing in flight",
				j.cfg.Name, a.sched.CurrentPhase()))
			p.settleLocked(a)
			if j.State() == Failed {
				p.stalled++
			}
		}
		if len(stalled) > 0 {
			p.nWaiting.Add(-1)
			p.cond.Broadcast()
			return false, at
		}
		// Nothing stalled: what is in flight is in the hands of a goroutine
		// that is not a pool worker (an async job's management goroutine,
		// a captive of an injected wedge), and sweeping again cannot hurry
		// it. Wait like any other parker — its notify callback, retire,
		// activate and the watchdog's re-wake are the wakeups, and the gen
		// re-check above already closed the race with them.
	}
	if rec := p.cfg.Trace; rec != nil {
		rec.Ring(w).Record(trace.KPark, rec.At(at), int32(w), -1, -1, 0, 0, 0)
	}
	p.cond.Wait()
	p.nWaiting.Add(-1)
	now = clock.Now()
	d := now.Sub(at)
	p.idleNS.Add(int64(d))
	if p.met != nil {
		p.met.IdleTime.Add(w, int64(d))
	}
	if rec := p.cfg.Trace; rec != nil {
		rec.Ring(w).Record(trace.KUnpark, rec.At(now), int32(w), -1, -1, 0, 0, int64(d))
	}
	return false, now
}
