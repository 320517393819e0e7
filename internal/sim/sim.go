// Package sim is a deterministic discrete-event simulator of a PAX-style
// parallel machine: P processors executing granule tasks dispatched by a
// serial management server (the executive). It drives the core.Scheduler
// state machine in virtual time, charging every management cost the
// scheduler reports to the management server.
//
// There is one event engine: a time-ordered queue of worker asks and task
// completions over one or more jobs sharing the machine. RunMulti runs
// several jobs on it; Run is its one-job case, converted into the
// single-program Result. A program is therefore priced the same whether it
// runs alone or is the only live job of a shared machine.
//
// Where executive computation runs is the run's management model
// (MgmtModel): one value the engine builds at the start and asks wherever
// the models differ — what an ask probes and costs, what a completion does,
// what waits inside the model between events. StealsWorker and Dedicated
// reproduce the paper's discussion; Sharded, Adaptive and Async price the
// parallel and asynchronous managers this reproduction adds. Each is
// documented where it is declared.
//
// The simulator is deterministic: identical inputs produce identical
// schedules, event orders and metrics.
package sim

import (
	"context"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	// Procs is the machine's processor count P (>= 1; >= 2 for
	// StealsWorker, which reserves one processor for the executive).
	Procs int
	// Mgmt selects the executive resource model.
	Mgmt MgmtModel
	// Batch is the Adaptive model's refill batch size (the virtual
	// DequeCap): how many tasks one serialized lock visit pulls; the
	// completion batch is half of it. <= 0 selects 16. With
	// Options.AdaptiveBatch this is the controller's starting point;
	// otherwise it is fixed for the whole run. Other models ignore it.
	Batch int
	// ReadyCap bounds each job's ready buffer under the Async model — how
	// many dispatched-but-unclaimed tasks of one job the dedicated executive
	// keeps ahead of the workers. <= 0 splits 2*workers across the jobs
	// (minimum 8 per job): the model's own default, smaller than the
	// goroutine manager's 16 per worker (DESIGN.md §3.4). Other models
	// ignore it.
	ReadyCap int
	// LowWater is the Async model's deferred-overlap mark: the executive
	// absorbs a job's deferred management whenever the job's ready buffer
	// holds more than this many tasks. <= 0 selects a quarter of the
	// resolved ReadyCap (minimum 1). Other models ignore it.
	LowWater int
	// Observer, when non-nil, receives periodic Snapshots as the run's
	// virtual frontier advances, plus one Final snapshot on every
	// outcome — at the makespan on success, at the frontier reached on
	// failure or cancellation. Emission points are deterministic (fixed
	// virtual-time marks, roughly 16 per run from a makespan estimate), so
	// observation never perturbs the schedule.
	// Both Run and RunMulti honor it.
	Observer func(Snapshot)
	// Trace, when non-nil, flight-records every scheduling decision —
	// dispatches, completions, parks/unparks, controller retunes,
	// observation marks, start/finish/abort — stamped with virtual times.
	// The simulator emits from its single event-loop goroutine into ring
	// 0 in processing order, so the merged trace's (Time, Seq) order IS
	// the loop's deterministic serve order (equal-tick ordering contract:
	// see internal/sim/trace.go). Both Run and RunMulti honor it. It is
	// the run's only record of when each processor computed: every
	// KDispatch carries the task's charged cost, so a task's busy interval
	// is [Time, Time+Arg) (trace.Trace.EachBusy), and the utilization
	// curve and chart are views of the recorded trace.
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
	// phase was the current phase and had begun dispatching (-1 if none
	// did): the onset of computational rundown. Idling through the phase's
	// serial action, before its first task, is not rundown.
	RundownStart int64
	// IdleUnits is the processor-time accumulated by workers that parked
	// while this phase was current, up to their unpark or, for a park
	// still open when the run ends, the makespan.
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
}

// Run simulates prog under the scheduler options opt on the machine cfg:
// the one-job run of the engine RunMulti drives, so a program is priced
// the same alone as it is with co-tenants.
func Run(prog *core.Program, opt core.Options, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, opt, cfg)
}

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx between management operations and a cancelled run returns an error
// wrapping ctx.Err() (test with errors.Is). A nil ctx behaves like
// context.Background().
func RunContext(ctx context.Context, prog *core.Program, opt core.Options, cfg Config) (*Result, error) {
	res, multi, err := RunJobContext(ctx, JobSpec{Prog: prog, Opt: opt}, cfg)
	if err != nil {
		return nil, err
	}
	// With one program there is no co-tenant to isolate a failure from:
	// the job's error is the run's.
	if err := multi.Jobs[0].Err; err != nil {
		return nil, err
	}
	return res, nil
}

// RunJobContext is RunContext for a job given as a JobSpec, which adds
// what a (prog, opt) pair cannot say: a name, a deadline, a retry budget.
// It returns the run both ways — as Result, with the phase traces, and as
// the one-job MultiResult RunMulti would report, with the fault and retry
// counts and the job's own outcome. As
// with RunMulti, a job that failed (retries exhausted, deadline missed)
// is not an error of the run: it is MultiResult.Jobs[0].Err, and Result
// then describes the run up to the job's retirement.
func RunJobContext(ctx context.Context, spec JobSpec, cfg Config) (*Result, *MultiResult, error) {
	multi, err := RunMultiContext(ctx, []JobSpec{spec}, cfg)
	if err != nil {
		return nil, nil, err
	}
	job := &multi.Jobs[0]
	res := &Result{
		Makespan:     multi.Makespan,
		ComputeUnits: multi.ComputeUnits,
		MgmtUnits:    multi.MgmtUnits,
		SerialUnits:  int64(job.Sched.SerialCost),
		IdleUnits:    multi.IdleUnits,
		Workers:      multi.Workers,
		Procs:        multi.Procs,
		Utilization:  multi.Utilization,
		Sched:        job.Sched,
		Batch:        multi.Batch,
		BatchChanges: multi.BatchChanges,
		Phases:       job.Phases,
	}
	res.WorkerUtilization, _ = telemetry.Shares(res.ComputeUnits, 0, res.Workers, res.Makespan)
	if res.MgmtUnits > 0 {
		res.MgmtRatio = float64(res.ComputeUnits) / float64(res.MgmtUnits)
	}
	return res, multi, nil
}
