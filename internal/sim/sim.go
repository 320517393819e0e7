// Package sim is a deterministic discrete-event simulator of a PAX-style
// parallel machine: P processors executing granule tasks dispatched by a
// serial management server (the executive). It drives the core.Scheduler
// state machine in virtual time, charging every management cost the
// scheduler reports to the management server.
//
// There is one event engine and one way to start it, Run: a time-ordered
// queue of worker asks and task completions over one or more jobs sharing
// the machine. A one-job run is the same call with one JobSpec, viewed as
// a single-program Result through MultiResult.OneJob, so a program is
// priced the same whether it runs alone or is the only live job of a
// shared machine.
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
	// completion batch is half of it. <= 0 selects 16. With AdaptiveTarget
	// set this is the controller's starting point; otherwise it is fixed
	// for the whole run. Other models ignore it.
	Batch int
	// AdaptiveTarget, when > 0, turns on the Adaptive model's batch
	// controller (tuner.go): one pool-wide controller retunes Batch online,
	// steering the lock-overhead share of capacity toward this setpoint
	// (DefaultMgmtTarget is the usual one). <= 0 keeps Batch fixed. Other
	// models ignore it.
	AdaptiveTarget float64
	// ReadyCap bounds each job's ready buffer under the Async model — how
	// many dispatched-but-unclaimed tasks of one job the dedicated executive
	// keeps ahead of the workers. <= 0 splits 2*workers across the jobs
	// (minimum 8 per job): the model's own default, smaller than the
	// goroutine manager's 16 per worker (DESIGN.md §3.4). Other models
	// ignore it.
	ReadyCap int
	// Observer, when non-nil, receives periodic snapshots as the run's
	// virtual frontier advances, plus one Final snapshot on every
	// outcome — at the makespan on success, at the frontier reached on
	// failure or cancellation. Emission points are deterministic (fixed
	// virtual-time marks, roughly 16 per run from a makespan estimate), so
	// observation never perturbs the schedule.
	Observer func(telemetry.Snapshot)
	// Trace, when non-nil, flight-records every scheduling decision —
	// dispatches, completions, parks/unparks, controller retunes,
	// observation marks, start/finish/abort — stamped with virtual times.
	// The simulator emits from its single event-loop goroutine into ring
	// 0 in processing order, so the merged trace's (Time, Seq) order IS
	// the loop's deterministic serve order (equal-tick ordering contract:
	// see internal/sim/trace.go). It is the run's only record of when each processor computed: every
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
	// goldens pin this).
	Metrics *telemetry.Set
	// Faults is the seeded fault-injection campaign (nil = off). A fresh
	// fault.Plan is compiled per run — Plans are stateful — and consulted
	// at the same chokepoints the real backends use, so identical Specs
	// yield bit-identical virtual outcomes.
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
	// (Adaptive model with Config.AdaptiveTarget only).
	BatchChanges int
	// Phases traces each phase.
	Phases []PhaseTrace
}

// OneJob is the single-program view of a one-job run (Report.Sim): the
// machine totals with the job's scheduler statistics, serial time and phase
// traces. A job that failed (retries exhausted, deadline missed) is
// described up to its retirement; its error stays Jobs[0].Err.
func (m *MultiResult) OneJob() *Result {
	job := &m.Jobs[0]
	res := &Result{
		Makespan:     m.Makespan,
		ComputeUnits: m.ComputeUnits,
		MgmtUnits:    m.MgmtUnits,
		SerialUnits:  int64(job.Sched.SerialCost),
		IdleUnits:    m.IdleUnits,
		Workers:      m.Workers,
		Procs:        m.Procs,
		Utilization:  m.Utilization,
		Sched:        job.Sched,
		Batch:        m.Batch,
		BatchChanges: m.BatchChanges,
		Phases:       job.Phases,
	}
	res.WorkerUtilization, _ = telemetry.Shares(res.ComputeUnits, 0, res.Workers, res.Makespan)
	if res.MgmtUnits > 0 {
		res.MgmtRatio = float64(res.ComputeUnits) / float64(res.MgmtUnits)
	}
	return res
}
