// Package sim is a deterministic discrete-event simulator of a PAX-style
// parallel machine: P processors executing granule tasks dispatched by a
// serial management server (the executive). It drives the core.Scheduler
// state machine in virtual time, charging every management cost the
// scheduler reports to the management server.
//
// Five management resource models are provided. The first two reproduce
// the paper's discussion; the others price the parallel and asynchronous
// managers this reproduction adds (internal/executive's ShardedManager
// and AsyncManager):
//
//   - StealsWorker: the executive runs on one of the P processors ("in the
//     PAX/CASPER UNIVAC 1100 test bed, executive computation was done at
//     the direct expense of worker computation"), so only P-1 processors
//     compute granules.
//   - Dedicated: "some real parallel machines may provide separate
//     executive computing resources" — all P processors compute and the
//     executive runs beside them.
//   - Sharded: management is distributed across the workers. Each
//     processor pays its own dispatch and completion costs inline on its
//     own timeline (per-shard management), so management work from
//     different processors proceeds concurrently instead of queueing on
//     one serial server; only phase activation and deferred idle-time
//     work (table builds, successor splitting) remain serialized. This is
//     the optimistic bound: it assumes entering the executive costs
//     nothing beyond the state-machine work itself.
//   - Adaptive: the batched-executive model — the virtual-time price of
//     the deque-based sharded manager. Workers hold local task buffers
//     and completion batches; popping the local buffer is free, but every
//     refill (NextTasks) and batch flush (CompleteBatch) is one visit to
//     the serialized management server charging MgmtCosts.Acquire plus
//     the state-machine cost. Batch size governs how many tasks amortize
//     each Acquire — too small and the lock serializes the machine, too
//     large and refills hoard tasks idle workers needed (the rundown
//     tail). With Options.AdaptiveBatch the batch is retuned online by
//     the executive.Tuner feedback loop; otherwise Config.Batch fixes it.
//   - Async: the Dedicated model extended with the async executive's
//     ready-buffer/low-water protocol — workers pop a bounded buffer the
//     dedicated server keeps topped up and queue completions back without
//     waiting; the virtual-time price of executive.AsyncManager.
//
// The simulator is deterministic: identical inputs produce identical
// schedules, event orders and metrics.
package sim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MgmtModel selects where executive computation runs.
type MgmtModel uint8

const (
	// StealsWorker dedicates one of the P processors to the executive.
	StealsWorker MgmtModel = iota
	// Dedicated gives the executive its own processor beside the P workers.
	Dedicated
	// Sharded distributes management across the P workers: each processor
	// pays its own management costs inline, concurrently with the others'.
	Sharded
	// Adaptive is the batched-executive model: per-worker task buffers
	// and completion batches, each refill or flush paying one serialized
	// Acquire-priced lock visit; the batch size is fixed (Config.Batch)
	// or retuned online (Options.AdaptiveBatch).
	Adaptive
	// Async is the Dedicated model extended with the async executive's
	// ready-buffer protocol (see async.go): a separate executive
	// processor keeps a bounded ready-buffer topped up, workers pop it
	// for free and queue completions back without waiting, and deferred
	// management overlaps computation above the buffer's low-water mark
	// — the virtual-time price of executive.AsyncManager.
	Async
)

func (m MgmtModel) String() string {
	switch m {
	case StealsWorker:
		return "steals-worker"
	case Dedicated:
		return "dedicated"
	case Sharded:
		return "sharded"
	case Adaptive:
		return "adaptive"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("MgmtModel(%d)", uint8(m))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Procs is the machine's processor count P (>= 1; >= 2 for
	// StealsWorker, which reserves one processor for the executive).
	Procs int
	// Mgmt selects the executive resource model.
	Mgmt MgmtModel
	// BucketWidth sets the utilization-curve resolution in virtual units;
	// <= 0 chooses roughly 200 buckets from a makespan estimate.
	BucketWidth int64
	// Gantt records per-processor spans for ASCII rendering. Only use on
	// small runs; memory is O(tasks).
	Gantt bool
	// MaxOps bounds the number of management operations as a runaway
	// guard; <= 0 means a generous default.
	MaxOps int64
	// Batch is the Adaptive model's refill batch size (the virtual
	// DequeCap): how many tasks one serialized lock visit pulls; the
	// completion batch is half of it. <= 0 selects 16. With
	// Options.AdaptiveBatch this is the controller's starting point;
	// otherwise it is fixed for the whole run. Other models ignore it.
	Batch int
	// ReadyCap bounds the Async model's ready-buffer — how many
	// dispatched-but-unclaimed tasks the dedicated executive keeps ahead
	// of the workers. <= 0 selects 2*workers (minimum 8), matching
	// executive.Config.ReadyCap. Other models ignore it.
	ReadyCap int
	// LowWater is the Async model's deferred-overlap mark: the executive
	// absorbs deferred management whenever the ready-buffer holds more
	// than this many tasks. <= 0 selects ReadyCap/4 (minimum 1). Other
	// models ignore it.
	LowWater int
	// Observer, when non-nil, receives periodic Snapshots as the run's
	// virtual frontier advances, plus one Final snapshot on every
	// outcome — at the makespan on success, at the frontier reached on
	// failure or cancellation. Emission points are deterministic (fixed
	// virtual-time marks), so observation never perturbs the schedule.
	// Both Run and RunMulti honor it.
	Observer func(Snapshot)
	// ObserveEvery is the snapshot stride in virtual units; <= 0 selects
	// roughly 16 snapshots from a makespan estimate. Ignored without
	// Observer.
	ObserveEvery int64
	// Trace, when non-nil, flight-records every scheduling decision —
	// dispatches, completions, parks/unparks, controller retunes,
	// observation marks, start/finish/abort — stamped with virtual times.
	// The simulator emits from its single event-loop goroutine into ring
	// 0 in processing order, so the merged trace's (Time, Seq) order IS
	// the loop's deterministic serve order (equal-tick ordering contract:
	// see internal/sim/trace.go). Both Run and RunMulti honor it.
	Trace *trace.Recorder
	// Metrics, when non-nil, records the standard telemetry.Set at the
	// same chokepoints the flight recorder traces — dispatches,
	// completions, ask-to-dispatch latency, faults, retries, retunes,
	// buffer occupancy — with every duration in virtual units. Recording
	// happens on the single event-loop goroutine in processing order, so
	// identical inputs yield bit-identical metric dumps (the determinism
	// goldens pin this). Both Run and RunMulti honor it.
	Metrics *telemetry.Set
	// Faults is the seeded fault-injection campaign (nil = off). A fresh
	// fault.Plan is compiled per run — Plans are stateful — and consulted
	// at the same chokepoints the real backends use, so identical Specs
	// yield bit-identical virtual outcomes. Both Run and RunMulti honor
	// it.
	Faults *fault.Spec
	// PreemptBound caps every job's task grain at this many granules —
	// the bounded-degradation contract: a home job emerging from rundown
	// waits at most one PreemptBound-sized grain for any in-flight
	// foreign task. <= 0 leaves the grain at the job's own setting (or
	// the core default). MultiResult.MaxBackfillTask reports the measured
	// bound.
	PreemptBound int
}

// PhaseTrace describes one phase's schedule within a run.
type PhaseTrace struct {
	Name string
	// Start is the virtual time the phase's first task was handed out;
	// End is when its last completion finished processing.
	Start, End int64
	// RundownStart is the first time a processor went idle while this
	// phase was the current phase (-1 if none did): the onset of
	// computational rundown.
	RundownStart int64
	// IdleUnits is the processor-time accumulated by workers that parked
	// while this phase was current.
	IdleUnits int64
	// Dispatched counts tasks of this phase.
	Dispatched int64
	// OverlapUnits is compute from OTHER phases performed during this
	// phase's currency — the work that filled the rundown.
	OverlapUnits int64
}

// Result aggregates a simulation run.
type Result struct {
	// Makespan is the virtual completion time of the whole program.
	Makespan int64
	// ComputeUnits is the total granule execution time.
	ComputeUnits int64
	// MgmtUnits is the total executive busy time.
	MgmtUnits int64
	// SerialUnits is the executive time spent in between-phase serial actions.
	SerialUnits int64
	// IdleUnits is the total parked worker time.
	IdleUnits int64
	// Workers is the number of processors that executed granules.
	Workers int
	// Procs is the machine size P (capacity denominator).
	Procs int
	// Utilization is ComputeUnits / (Procs * Makespan).
	Utilization float64
	// WorkerUtilization is ComputeUnits / (Workers * Makespan).
	WorkerUtilization float64
	// MgmtRatio is the paper's computation-to-management ratio:
	// ComputeUnits / MgmtUnits (0 when MgmtUnits is 0).
	MgmtRatio float64
	// Sched is the scheduler's management statistics.
	Sched core.Stats
	// Batch is the refill batch size at the end of the run (Adaptive
	// model only: the fixed Config.Batch, or wherever the controller
	// settled). Zero under the other models.
	Batch int
	// BatchChanges counts the adaptive controller's parameter changes
	// (Adaptive model with Options.AdaptiveBatch only).
	BatchChanges int
	// Phases traces each phase.
	Phases []PhaseTrace
	// Timeline is the bucketed utilization recorder.
	Timeline *metrics.Timeline
	// Gantt is non-nil when Config.Gantt was set.
	Gantt *metrics.Gantt
}

// event is a scheduled future occurrence (task completion). dur carries
// the task's compute cost so completion-time accounting (the observer's
// done-work counter) does not re-evaluate the cost function. The queue
// holding these is the typed 4-ary eventHeap in heap.go.
type event struct {
	at   int64
	seq  int64
	task core.Task
	proc int
	dur  int64
	fail error // injected grain failure carried by this completion
}

// request is a unit of work for the serial management server.
type request struct {
	at     int64 // arrival time
	proc   int   // worker involved (-1 for none)
	isDone bool  // true: completion processing; false: task request
	task   core.Task
	dur    int64 // completed task's compute cost (isDone only)
}

// Run simulates prog under the scheduler options opt on the machine cfg.
func Run(prog *core.Program, opt core.Options, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, opt, cfg)
}

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx between management operations and a cancelled run returns an error
// wrapping ctx.Err() (test with errors.Is). A nil ctx behaves like
// context.Background().
func RunContext(ctx context.Context, prog *core.Program, opt core.Options, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// failEarly keeps the observer contract — one Final snapshot on
	// every outcome — for runs that die before starting.
	failEarly := func(err error) (*Result, error) {
		if cfg.Observer != nil {
			cfg.Observer(Snapshot{Final: true})
		}
		return nil, err
	}
	if cfg.Procs < 1 {
		return failEarly(fmt.Errorf("sim: need at least 1 processor"))
	}
	workers := cfg.Procs
	if cfg.Mgmt == StealsWorker {
		workers = cfg.Procs - 1
		if workers < 1 {
			return failEarly(fmt.Errorf("sim: StealsWorker model needs at least 2 processors"))
		}
	}
	if opt.Workers <= 0 {
		opt.Workers = workers
	}
	opt = capGrain(prog, opt, cfg.PreemptBound)
	sched, err := core.New(prog, opt)
	if err != nil {
		return failEarly(err)
	}

	bucket := cfg.BucketWidth
	if bucket <= 0 {
		est := int64(prog.TotalCost())/int64(workers) + 1
		bucket = est / 200
		if bucket < 1 {
			bucket = 1
		}
	}
	tl := metrics.NewTimeline(cfg.Procs, bucket)
	var gantt *metrics.Gantt
	if cfg.Gantt {
		gantt = metrics.NewGantt(cfg.Procs)
	}

	maxOps := cfg.MaxOps
	if maxOps <= 0 {
		maxOps = int64(prog.TotalGranules())*64 + int64(workers)*1024 + 1_000_000
	}

	s := &state{
		ctx:        ctx,
		sched:      sched,
		prog:       prog,
		model:      cfg.Mgmt,
		workers:    workers,
		procs:      cfg.Procs,
		tl:         tl,
		gantt:      gantt,
		obs:        newObserver(cfg.Observer, cfg.ObserveEvery, int64(prog.TotalCost()), workers),
		phases:     make([]PhaseTrace, len(prog.Phases)),
		parkedA:    make([]int64, workers),
		parked:     make([]bool, workers),
		parkedB:    newParkedSet(workers),
		workerFree: make([]int64, workers),
	}
	if s.obs != nil {
		s.nowFn = s.frontier
		s.snapFn = s.snapshot
	}
	if cfg.Trace != nil {
		s.tr = bindTrace(cfg.Trace, cfg.Mgmt, workers, prog)
	}
	s.met = cfg.Metrics
	if cfg.Faults != nil {
		s.plan = fault.New(*cfg.Faults)
	}
	s.crashed = make([]bool, workers)
	s.livew = workers
	for i, ph := range prog.Phases {
		s.phases[i] = PhaseTrace{Name: ph.Name, Start: -1, End: -1, RundownStart: -1}
	}
	if cfg.Mgmt == Async {
		s.asyncInit(cfg)
	}
	if cfg.Mgmt == Adaptive {
		b := cfg.Batch
		if b <= 0 {
			b = 16
		}
		s.batchN, s.cbatchN = b, b/2
		if s.cbatchN < 1 {
			s.cbatchN = 1
		}
		if opt.AdaptiveBatch {
			s.tuner = executive.NewTuner(executive.TunerConfig{
				Cap: b, MgmtTarget: opt.MgmtTarget,
			})
			s.batchN, s.cbatchN = s.tuner.Cap(), s.tuner.Batch()
		}
		s.ab = make([]simShard, workers)
		s.acquire = opt.Costs.Acquire
		// Observation epochs: aim for ~100 per run so the multiplicative
		// controller has room to travel and settle.
		s.epochLen = (int64(prog.TotalCost())/int64(workers) + 1) / 100
		if s.epochLen < 1 {
			s.epochLen = 1
		}
	}
	if s.met != nil && cfg.Mgmt == Adaptive {
		s.met.BatchSize.Set(int64(s.batchN))
	}

	if err := s.run(maxOps); err != nil {
		// The observer contract promises a closing Final snapshot on
		// every outcome; a failed or cancelled run closes the stream with
		// the counters accumulated so far. The trace closes with an abort
		// record the same way.
		if s.tr != nil {
			s.tr.Record(trace.KAbort, s.frontier(), -1, 0, -1, 0, 0, 0)
		}
		s.finishMetrics()
		s.obs.final(s.snapshot(s.frontier()))
		return nil, err
	}
	res := s.result()
	if s.tr != nil {
		s.tr.Record(trace.KFinish, res.Makespan, -1, 0, -1, 0, 0, 0)
	}
	s.finishMetrics()
	s.obs.final(s.snapshot(res.Makespan))
	return res, nil
}

type state struct {
	ctx     context.Context
	sched   *core.Scheduler
	prog    *core.Program
	model   MgmtModel
	workers int
	procs   int
	tl      *metrics.Timeline
	gantt   *metrics.Gantt
	obs     *observer
	tr      *trace.Ring    // flight recorder (nil = tracing off)
	met     *telemetry.Set // metric set (nil = metrics off)

	reqs       fifo[request] // FIFO management queue
	events     eventHeap
	seq        int64
	serverFree int64   // time the serial management server becomes free
	workerFree []int64 // Sharded model: time each worker's own lane frees

	// Pre-bound observer thunks (see observer.maybe): binding the method
	// values once at setup keeps the per-event observer probe from
	// allocating a fresh closure per call.
	nowFn  func() int64
	snapFn func(at int64) Snapshot

	// Async model state: the dedicated server's ready-buffer (tasks
	// already popped from the scheduler, each stamped with its production
	// time), completions queued behind the server, the NextTasks scratch,
	// and the buffer knobs. See async.go.
	aready   []asyncSlot
	acomp    []core.Task
	abuf     []core.Task
	readyCap int
	lowWater int

	// Adaptive model state: per-worker shards, current refill/completion
	// batch sizes, the per-lock-visit charge, and the controller with its
	// epoch snapshots.
	ab           []simShard
	batchN       int
	cbatchN      int
	acquire      core.Cost
	acquireUnits int64 // summed Acquire charges (the amortizable overhead)
	tuner        *executive.Tuner
	epochLen     int64
	lastObsAt    int64
	lastObsAcq   int64
	lastObsHI    int64

	// Hoarded-idle integral: processor time spent parked while tasks sat
	// in peer buffers — min(parked, buffered) integrated over virtual
	// time. hoardNow counts buffered-but-unconsumed tasks, parkedN the
	// parked workers; hiAt is the integral's frontier.
	hoardNow int
	parkedN  int
	hiInt    int64
	hiAt     int64

	parked    []bool
	parkedB   parkedSet // same membership as parked, for sparse wake scans
	parkedA   []int64   // park start per worker
	idleUnits int64

	computeUnits int64
	doneUnits    int64 // compute of tasks whose completion event was served
	mgmtUnits    int64
	lastDone     int64 // completion horizon (worker-side makespan)

	phases    []PhaseTrace
	phaseDone []bool

	// Fault injection (see faults.go): the compiled campaign (nil =
	// injection off — one branch per chokepoint), retired workers, and
	// the live-worker floor the crash hook maintains.
	plan    *fault.Plan
	crashed []bool
	livew   int
}

// chargeMgmt charges cost units of executive time for a request involving
// worker w: on the serial management server under the serial models, or —
// under the Sharded model — inline on the worker's own lane, so management
// from different processors proceeds concurrently. Requests with no worker
// (w < 0) always serialize.
func (s *state) chargeMgmt(w int, at int64, cost core.Cost) int64 {
	if s.model != Sharded || w < 0 {
		return s.serve(at, cost)
	}
	start := at
	if s.workerFree[w] > start {
		start = s.workerFree[w]
	}
	fin := start + int64(cost)
	if cost > 0 {
		s.tl.AddMgmt(start, fin)
		s.mgmtUnits += int64(cost)
	}
	s.workerFree[w] = fin
	// The serialized lane (phase activation, deferred idle-time work)
	// must never lag the management frontier: without this, deferred
	// composite-map builds would be charged in the past — overlapping
	// work that already happened — and the trailing completion costs on
	// worker lanes would escape the makespan.
	if fin > s.serverFree {
		s.serverFree = fin
	}
	return fin
}

// serve charges cost units of executive time starting no earlier than at,
// records them, and returns the finish time.
func (s *state) serve(at int64, cost core.Cost) int64 {
	start := at
	if s.serverFree > start {
		start = s.serverFree
	}
	fin := start + int64(cost)
	if cost > 0 {
		s.tl.AddMgmt(start, fin)
		s.mgmtUnits += int64(cost)
	}
	s.serverFree = fin
	return fin
}

// noteStarve advances the hoarded-idle integral to now (Adaptive model
// only). Call before any change to the parked count or the buffered-task
// count; out-of-order event times only stall the frontier, never rewind
// it.
func (s *state) noteStarve(now int64) {
	if s.model != Adaptive || now <= s.hiAt {
		return
	}
	if s.parkedN > 0 && s.hoardNow > 0 {
		n := int64(s.parkedN)
		if int64(s.hoardNow) < n {
			n = int64(s.hoardNow)
		}
		s.hiInt += n * (now - s.hiAt)
	}
	s.hiAt = now
}

func (s *state) park(worker int, at int64) {
	if s.parked[worker] {
		return
	}
	if s.tr != nil {
		s.tr.Record(trace.KPark, at, int32(worker), 0, -1, 0, 0, 0)
	}
	s.noteStarve(at)
	s.parkedN++
	s.parked[worker] = true
	s.parkedB.set(worker)
	s.parkedA[worker] = at
	cur := s.sched.CurrentPhase()
	if cur < len(s.phases) && s.phases[cur].RundownStart < 0 {
		s.phases[cur].RundownStart = at
	}
}

func (s *state) unpark(worker int, at int64) {
	if !s.parked[worker] {
		return
	}
	if s.tr != nil {
		s.tr.Record(trace.KUnpark, at, int32(worker), 0, -1, 0, 0, at-s.parkedA[worker])
	}
	s.noteStarve(at)
	s.parkedN--
	s.parked[worker] = false
	s.parkedB.clear(worker)
	d := at - s.parkedA[worker]
	if d > 0 {
		s.idleUnits += d
		cur := s.sched.CurrentPhase()
		if cur < len(s.phases) {
			s.phases[cur].IdleUnits += d
		}
	}
}

// wake re-queues task requests for parked workers, bounded by the number of
// tasks the queued descriptions will split into. The parked bitset is
// walked in ascending worker order — the order the old full scan used —
// so wake fairness is unchanged while a no-parked-workers wake costs a
// handful of zero-word loads instead of a full worker sweep.
func (s *state) wake(at int64) {
	if s.parkedN == 0 {
		return
	}
	avail := s.sched.ReadyTasks()
	if avail <= 0 {
		return
	}
	if s.plan != nil && s.plan.DropWakeup() {
		// The wakeup vanishes; the run loop's queue-empty probe re-wakes.
		s.noteFault(at, -1, fault.DropWakeup)
		return
	}
	for wi := 0; wi < len(s.parkedB.words) && avail > 0; wi++ {
		word := s.parkedB.words[wi]
		for word != 0 && avail > 0 {
			w := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.unpark(w, at)
			s.reqs.push(request{at: at, proc: w})
			avail--
		}
	}
}

func (s *state) run(maxOps int64) error {
	// An already-cancelled context aborts before any work: the batched
	// in-loop poll (every 1024 ops) would let a small run finish without
	// ever observing the cancellation.
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled at t=0: %w", err)
	}
	startCost := s.sched.Start()
	s.serve(0, startCost)
	if s.tr != nil {
		s.tr.Record(trace.KStart, 0, -1, 0, -1, 0, 0, int64(startCost))
	}
	if s.met != nil {
		// One program, admitted immediately at t=0: the job-lifecycle
		// members exist in every backend's dump, zero-waited here.
		s.met.JobsSubmitted.Inc(0)
		s.met.ActiveJobs.Add(1)
		s.met.QueueWait.Observe(0)
	}
	for w := 0; w < s.workers; w++ {
		s.reqs.push(request{at: s.serverFree, proc: w})
	}

	var ops int64
	for {
		ops++
		if ops > maxOps {
			return fmt.Errorf("sim: exceeded %d management operations (runaway?)", maxOps)
		}
		// Cooperative cancellation: one ctx poll per batch of management
		// operations, so a cancelled caller gets back promptly without the
		// hot loop paying an atomic load per event.
		if ops&1023 == 0 {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("sim: run canceled at t=%d: %w", s.frontier(), err)
			}
		}
		// Guarded here, not in maybe: an unobserved run must not pay even
		// the thunk's indirect call per event. A mark that fires here is
		// recorded BEFORE the events this iteration then serves — the
		// equal-tick ordering contract (internal/sim/trace.go).
		if s.obs != nil {
			if at, fired := s.obs.maybe(s.nowFn, s.snapFn); fired && s.tr != nil {
				s.tr.Record(trace.KMark, at, -1, 0, -1, 0, 0, 0)
			}
		}

		if s.reqs.len() > 0 {
			s.serveRequest(s.reqs.pop())
			continue
		}

		// No requests: if the executive is idle before the next
		// completion arrives, process deferred successor-splitting work.
		next, haveEvent := s.events.peekTime()
		if s.sched.HasDeferred() && (!haveEvent || next >= s.serverFree) {
			cost, ok := s.sched.DeferredMgmt()
			if ok {
				fin := s.serve(s.serverFree, cost)
				s.wake(fin)
				continue
			}
		}

		if haveEvent {
			ev := s.events.pop()
			if s.plan != nil {
				// A management-delay fault withholds this completion's
				// submission to the executive; the event re-queues Delay
				// later (the rule's budget bounds the re-queues).
				if d, ok := s.plan.Mgmt(0, ev.at); ok {
					s.noteFault(ev.at, ev.proc, fault.MgmtDelay)
					ev.at += d
					s.seq++
					ev.seq = s.seq
					s.events.push(ev)
					continue
				}
			}
			if ev.fail != nil {
				// An injected grain failure: with one program there is no
				// co-tenant to isolate it from — the run fails.
				return ev.fail
			}
			s.reqs.push(request{at: ev.at, proc: ev.proc, isDone: true, task: ev.task, dur: ev.dur})
			continue
		}

		// Async: completions can be parked behind a busy server with no
		// further worker event left to trigger a drain (every worker
		// parked); force one so the run can finish.
		if s.model == Async && len(s.acomp) > 0 {
			s.asyncService(s.serverFree, true)
			continue
		}

		if s.sched.Done() {
			return nil
		}
		// Dropped-wakeup recovery: ready work with every worker parked and
		// nothing queued means a wake was injected away — re-wake (the
		// DropWakeup budget bounds repeats; maxOps guards the rest).
		if s.plan != nil && s.parkedN > 0 {
			avail := s.sched.ReadyTasks()
			if s.model == Async {
				avail += len(s.aready)
			}
			if avail > 0 {
				if s.model == Async {
					s.wakeAsync()
				} else {
					s.wake(s.serverFree)
				}
				continue
			}
		}
		return fmt.Errorf("sim: stalled at t=%d phase=%d: no events, no requests, scheduler not done",
			s.serverFree, s.sched.CurrentPhase())
	}
}

func (s *state) serveRequest(req request) {
	if req.isDone {
		s.completeTask(req)
		return
	}
	if s.plan != nil && s.maybeCrash(req.proc, req.at) {
		return // the worker is retired: its ask dies, it never asks again
	}
	if s.model == Adaptive {
		s.adaptiveAsk(req)
		return
	}
	if s.model == Async {
		s.asyncAsk(req)
		return
	}
	// Task request from an idle worker.
	task, cost, ok := s.sched.NextTask()
	fin := s.chargeMgmt(req.proc, req.at, cost)
	if !ok {
		s.park(req.proc, fin)
		return
	}
	if s.met != nil {
		s.met.DispatchWait.Observe(fin - req.at)
	}
	s.dispatch(req.proc, task, fin)
}

// simShard is one worker's local state under the Adaptive model: the task
// buffer a refill filled (tasks[next:] still pending) and the completion
// batch awaiting a flush. buf is the scratch handed to NextTasks so
// steady-state refills reuse one array.
type simShard struct {
	tasks []core.Task
	next  int
	done  []core.Task
	buf   []core.Task
}

// adaptiveAsk serves a task request under the Adaptive model: pop the
// local buffer for free, or make one serialized lock visit that flushes
// the completion batch and pulls the next refill.
func (s *state) adaptiveAsk(req request) {
	ab := &s.ab[req.proc]
	if ab.next < len(ab.tasks) {
		// Local deque pop: the whole point — no management charge.
		task := ab.tasks[ab.next]
		ab.next++
		s.noteStarve(req.at)
		s.hoardNow--
		if s.met != nil {
			s.met.DispatchWait.Observe(0)
		}
		s.dispatch(req.proc, task, req.at)
		return
	}
	// Refill visit. Completions flush first (they may release the very
	// work the refill then pulls), mirroring the sharded manager's refill
	// path; one Acquire covers the combined visit.
	var cost core.Cost
	flushed := len(ab.done) > 0
	if flushed {
		cost += s.sched.CompleteBatch(ab.done)
	}
	ts, dc := s.sched.NextTasks(ab.buf[:0], s.batchN)
	cost += dc
	if flushed || len(ts) > 0 {
		cost += s.acquire
		s.acquireUnits += int64(s.acquire)
	}
	fin := s.serve(req.at, cost)
	if flushed {
		for _, t := range ab.done {
			if pt := &s.phases[t.Phase]; fin > pt.End {
				pt.End = fin
			}
		}
		ab.done = ab.done[:0]
	}
	s.maybeRetune(fin)
	// Wake after the refill, not just after a flush: NextTasks' liveness
	// fallback can absorb deferred management and release work beyond
	// what this worker's batch took, and parked peers must see it (the
	// goroutine manager's refill wake counts ReadyTasks the same way).
	s.wake(fin)
	if len(ts) > 0 {
		ab.tasks, ab.buf, ab.next = ts, ts[:0], 1
		s.noteStarve(fin)
		s.hoardNow += len(ts) - 1
		if s.met != nil {
			s.met.DispatchWait.Observe(fin - req.at)
		}
		s.dispatch(req.proc, ts[0], fin)
		return
	}
	ab.buf = ts[:0]
	s.park(req.proc, fin)
}

// adaptiveComplete accumulates a completion in the worker's local batch,
// flushing it through one serialized lock visit when full.
func (s *state) adaptiveComplete(req request) {
	ab := &s.ab[req.proc]
	ab.done = append(ab.done, req.task)
	if req.at > s.lastDone {
		s.lastDone = req.at
	}
	at := req.at
	if len(ab.done) >= s.cbatchN {
		cost := s.acquire + s.sched.CompleteBatch(ab.done)
		s.acquireUnits += int64(s.acquire)
		fin := s.serve(at, cost)
		for _, t := range ab.done {
			if pt := &s.phases[t.Phase]; fin > pt.End {
				pt.End = fin
			}
		}
		ab.done = ab.done[:0]
		s.maybeRetune(fin)
		s.wake(fin)
		at = fin
	} else if pt := &s.phases[req.task.Phase]; at > pt.End {
		// Batched: the completion waits in the worker's local batch at no
		// management charge; the phase still saw the event.
		pt.End = at
	}
	// The worker asks for new work once its completion is handed off.
	s.reqs.push(request{at: at, proc: req.proc})
}

// maybeRetune feeds the adaptive controller one epoch of virtual-time
// measurements when enough virtual time has passed: the Acquire charges
// are the amortizable lock overhead, and the hoarded-idle integral the
// starvation a smaller batch would have fed.
func (s *state) maybeRetune(now int64) {
	if s.tuner == nil || now-s.lastObsAt < s.epochLen {
		return
	}
	s.noteStarve(now)
	capacity := (now - s.lastObsAt) * int64(s.workers)
	// The virtual-time model has no cond-parked-behind-the-lock state —
	// every wait is priced into the serialized server directly — so the
	// lock-starvation input is zero here.
	cap, batch, changed := s.tuner.Observe(capacity,
		s.acquireUnits-s.lastObsAcq, s.hiInt-s.lastObsHI, 0)
	if changed {
		s.batchN, s.cbatchN = cap, batch
		if s.tr != nil {
			s.tr.Record(trace.KRetune, now, -1, 0, -1, 0, 0, int64(cap))
		}
		if s.met != nil {
			s.met.Retunes.Inc(0)
			s.met.BatchSize.Set(int64(cap))
		}
	}
	s.lastObsAt = now
	s.lastObsAcq = s.acquireUnits
	s.lastObsHI = s.hiInt
}

func (s *state) dispatch(worker int, task core.Task, at int64) {
	dur := int64(s.sched.TaskCost(task))
	var lag int64 // completion-event delay (stuck grain / wedged worker)
	var fail error
	if s.plan != nil {
		dur, lag, fail = s.inject(worker, task, at, dur)
	}
	if s.tr != nil {
		s.tr.Record(trace.KDispatch, at, int32(worker), 0,
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
	}
	if s.met != nil {
		s.met.Dispatches.Inc(worker)
	}
	end := at + dur
	s.computeUnits += dur
	s.workerFree[worker] = end + lag
	s.tl.AddBusy(worker, at, end)
	if s.gantt != nil {
		label := rune('A' + int(task.Phase)%26)
		s.gantt.Add(worker, at, end, label)
	}
	pt := &s.phases[task.Phase]
	if pt.Start < 0 || at < pt.Start {
		pt.Start = at
	}
	pt.Dispatched++
	// Overlap attribution: compute performed for a non-current phase
	// fills the current phase's rundown.
	if cur := s.sched.CurrentPhase(); cur < len(s.phases) && granule.PhaseID(cur) != task.Phase {
		s.phases[cur].OverlapUnits += dur
	}
	s.seq++
	s.events.push(event{at: end + lag, seq: s.seq, task: task, proc: worker, dur: dur, fail: fail})
}

func (s *state) completeTask(req request) {
	// Done-work accrual for the observer: computeUnits is charged in full
	// at dispatch (it includes in-flight tasks' future work, which would
	// read as utilization > 1 mid-run), so snapshots count a task's
	// compute only when its completion event is served.
	s.doneUnits += req.dur
	// Recorded BEFORE the scheduler absorbs the completion, so any
	// dispatch the completion enables carries a larger Seq.
	if s.tr != nil {
		s.tr.Record(trace.KComplete, req.at, int32(req.proc), 0,
			int32(req.task.Phase), uint32(req.task.Run.Lo), uint32(req.task.Run.Hi), req.dur)
	}
	if s.met != nil {
		s.met.Completions.Inc(req.proc)
	}
	if s.model == Adaptive {
		s.adaptiveComplete(req)
		return
	}
	if s.model == Async {
		s.asyncComplete(req)
		return
	}
	cost := s.sched.Complete(req.task)
	fin := s.chargeMgmt(req.proc, req.at, cost)
	if req.at > s.lastDone {
		s.lastDone = req.at
	}
	pt := &s.phases[req.task.Phase]
	if fin > pt.End {
		pt.End = fin
	}
	s.wake(fin)
	// The completing worker asks for new work after its completion has
	// been processed.
	s.reqs.push(request{at: fin, proc: req.proc})
}

// frontier is the run's virtual-time high-water mark: the later of the
// management server's horizon and the last task completion — the same
// quantity result() uses as the makespan.
func (s *state) frontier() int64 {
	if s.lastDone > s.serverFree {
		return s.lastDone
	}
	return s.serverFree
}

// snapshot builds an observation of the run at virtual time at. Jobs is
// 1 until the program completes and 0 after, so the Final snapshot
// reads "drained" exactly as the other backends' do. ComputeUnits
// counts only completed tasks (doneUnits) — dispatch-time accrual would
// include in-flight tasks' future work and read as utilization above 1.
func (s *state) snapshot(at int64) Snapshot {
	sn := Snapshot{
		VirtualTime:  at,
		Tasks:        s.sched.Dispatches(),
		ComputeUnits: s.doneUnits,
		MgmtUnits:    s.mgmtUnits,
		IdleUnits:    s.idleUnits,
	}
	if !s.sched.Done() {
		sn.Jobs = 1
	}
	if s.model == Adaptive {
		sn.Batch = s.batchN
	}
	if at > 0 {
		capacity := float64(s.procs) * float64(at)
		sn.Utilization = float64(sn.ComputeUnits) / capacity
		sn.OverheadShare = float64(s.mgmtUnits) / capacity
	}
	return sn
}

func (s *state) result() *Result {
	makespan := s.serverFree
	if s.lastDone > makespan {
		makespan = s.lastDone
	}
	// Close out any still-parked workers at the makespan.
	for w := range s.parked {
		if s.parked[w] {
			s.parked[w] = false
			d := makespan - s.parkedA[w]
			if d > 0 {
				s.idleUnits += d
			}
		}
	}
	s.tl.SetEnd(makespan)

	st := s.sched.Stats()
	res := &Result{
		Makespan:     makespan,
		ComputeUnits: s.computeUnits,
		MgmtUnits:    s.mgmtUnits,
		SerialUnits:  int64(st.SerialCost),
		IdleUnits:    s.idleUnits,
		Workers:      s.workers,
		Procs:        s.procs,
		Sched:        st,
		Phases:       s.phases,
		Timeline:     s.tl,
		Gantt:        s.gantt,
	}
	if s.model == Adaptive {
		res.Batch = s.batchN
		if s.tuner != nil {
			res.BatchChanges = s.tuner.Changes()
		}
	}
	if makespan > 0 {
		res.Utilization = float64(s.computeUnits) / (float64(s.procs) * float64(makespan))
		res.WorkerUtilization = float64(s.computeUnits) / (float64(s.workers) * float64(makespan))
	}
	if s.mgmtUnits > 0 {
		res.MgmtRatio = float64(s.computeUnits) / float64(s.mgmtUnits)
	}
	return res
}

// finishMetrics closes out the metric set on any outcome: the job leaves
// the active gauge, and the time-split totals — accumulated as plain
// event-loop counters so the hot serve path stays metric-free — are
// flushed into their counters in one deterministic step.
func (s *state) finishMetrics() {
	if s.met == nil {
		return
	}
	s.met.JobsDone.Inc(0)
	s.met.ActiveJobs.Add(-1)
	s.met.ComputeTime.Add(0, s.computeUnits)
	s.met.MgmtTime.Add(0, s.mgmtUnits)
	s.met.IdleTime.Add(0, s.idleUnits)
}
