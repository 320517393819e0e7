package rundown

import (
	"fmt"
	"time"

	"repro/internal/enum"
)

// BackendKind identifies which machine a Runner drives.
type BackendKind uint8

const (
	// ExecBackend runs jobs on real goroutine workers: the multi-tenant
	// worker pool (internal/tenant) — one shared worker set, overlap-first
	// cross-job dispatch, one job's rundown filled by another job's work —
	// over one executive manager per job (internal/executive). RunAll
	// shares a fresh pool between the jobs; Run is its one-job case.
	ExecBackend BackendKind = iota
	// PoolBackend is the same machine under the label WithPool selects.
	PoolBackend
	// VirtualBackend runs jobs on the deterministic discrete-event
	// machine model (internal/sim): virtual time, priced management,
	// identical results on every host.
	VirtualBackend
)

// backends is BackendKind's name table, one row per backend.
var backends = enum.New("backend", ExecBackend, [][]string{{"goroutines"}, {"pool"}, {"virtual"}})

func (b BackendKind) String() string { return backends.String(b) }

// Job is the backend-agnostic job spec the Runner executes: the same Job
// runs unchanged on virtual time, on goroutine workers, or inside a
// shared tenant pool — only the Runner's options decide where.
type Job struct {
	// Name labels the job in reports and errors ("jobN" default where a
	// label is needed).
	Name string
	// Prog is the phase program.
	Prog *Program
	// Opt configures the job's scheduler (grain, overlap, split policy,
	// management costs).
	Opt Options
	// Priority orders cross-job backfill when several jobs share a
	// machine (higher first). Ignored by single-job runs.
	Priority int
	// Weight is the job's share of home workers and backfill credit in
	// shared runs (<= 0 selects 1). Ignored by single-job runs.
	Weight int
	// Deadline bounds the job's submit-to-finish time (0 = none). A job
	// past its deadline is aborted — only that job — with an error
	// wrapping context.DeadlineExceeded. Honored on every backend; virtual
	// runs count one unit per nanosecond.
	Deadline time.Duration
	// Retry is how many times a failed attempt (work error, panic,
	// injected fault, wedge) restarts on a fresh scheduler. Deadline
	// aborts and run cancellation never retry.
	Retry int
	// Backoff is the base delay before the first retry, doubled per
	// further retry and capped at 64×.
	Backoff time.Duration
}

// JobReport is one job's outcome within a run. Its JSON form is part
// of the service daemon's pinned wire schema (see json.go): Err
// flattens to an "error" string, durations are integer nanoseconds
// with _ns-suffixed keys, and absent backend detail reports are
// omitted.
type JobReport struct {
	// Name is the job's label.
	Name string
	// Err is the job's failure, if any (other jobs may have succeeded).
	Err error
	// Exec is the job's goroutine-execution report (real backends).
	Exec *ExecReport
	// Sim is the job's virtual-time result (virtual backend).
	Sim *SimJobResult
	// Backfill counts work the job received from workers homed on other
	// jobs: tasks on real backends, virtual compute units on the virtual
	// backend.
	Backfill int64
	// Attempts counts scheduler instantiations: 1 plus the retries the
	// job took (0 on backends without retry support).
	Attempts int
	// QueueWait is how long the job waited behind admission control
	// between submission and its first activation — zero when it was
	// admitted immediately, the job's whole lifetime when it was retired
	// without ever running. Pool-backed runs measure it on the wall
	// clock; virtual jobs all activate at submission and report zero.
	QueueWait time.Duration
	// DeadlineMargin is the deadline budget left when the job finished
	// (negative when it was retired past its deadline); HasDeadline
	// reports whether the job had a deadline at all — the margin is
	// meaningless without one. Virtual jobs measure it in
	// nanosecond-equivalent virtual units.
	DeadlineMargin time.Duration
	HasDeadline    bool
}

// Report is the unified result of a Runner.Run or Runner.RunAll: one
// headline block that reads the same across backends, plus the
// backend-specific detail reports embedded for callers that need them.
// The json tags pin the service daemon's wire schema: Backend, Manager
// and Model marshal as their string names, durations as integer
// nanoseconds (_ns keys), and the flight-recorder trace is excluded —
// traces travel in their own versioned binary format (the service's
// /trace endpoint), never inline in a report.
type Report struct {
	// Backend identifies the machine that produced the run.
	Backend BackendKind `json:"backend"`
	// Manager is the executive manager that ran the job (real backends).
	Manager ExecManager `json:"manager"`
	// Model is the management resource model (virtual backend).
	Model MgmtModel `json:"model"`
	// Workers is the worker count (real) or processor count P (virtual).
	Workers int `json:"workers"`
	// Tasks is the number of tasks dispatched.
	Tasks int64 `json:"tasks"`
	// Wall is the elapsed wall-clock time (real backends; zero on the
	// virtual backend).
	Wall time.Duration `json:"wall_ns"`
	// Makespan is the virtual completion time (virtual backend; zero on
	// real backends).
	Makespan int64 `json:"makespan,omitempty"`
	// Utilization is compute / (Workers * elapsed), in the backend's own
	// time base.
	Utilization float64 `json:"utilization"`
	// MgmtRatio is the paper's computation-to-management ratio (0 when no
	// management time was recorded).
	MgmtRatio float64 `json:"mgmt_ratio"`
	// Faults counts injected fault firings (WithFaults runs; 0 otherwise).
	Faults int64 `json:"faults,omitempty"`
	// Retries counts job attempt restarts across the run.
	Retries int64 `json:"retries,omitempty"`

	// Sim is the single-program virtual result (VirtualBackend Run): the
	// run's one job with its phase traces. Its utilization curve and
	// chart are views of Report.Trace (Trace.Timeline, Trace.Gantt).
	Sim *SimResult `json:"sim,omitempty"`
	// SimMulti is the multi-program virtual result (VirtualBackend
	// RunAll).
	SimMulti *MultiSimResult `json:"sim_multi,omitempty"`
	// Exec is the goroutine execution report of a one-job run, the same
	// object as Jobs[0].Exec: Wall is the job's submit-to-retire window
	// and Idle the workers' parked time within it, so Compute+Mgmt+Idle
	// fits inside Workers·Wall (plus the async manager's own processor).
	Exec *ExecReport `json:"exec,omitempty"`
	// Pool is the pool-lifetime report (goroutine backends).
	Pool *PoolReport `json:"pool,omitempty"`
	// Jobs holds per-job reports in submission order: every job of a
	// RunAll, and the one job of a Run.
	Jobs []JobReport `json:"jobs,omitempty"`
	// Trace is the run's merged flight-recorder trace (WithTrace runs
	// only; nil otherwise). Virtual traces are deterministic; real-backend
	// traces carry wall-clock timestamps.
	Trace *Trace `json:"-"`
	// Metrics is the run's closing telemetry dump (WithMetrics runs
	// only; nil otherwise): the full rundown metric set — counters,
	// gauges, latency histograms — sorted by name. Virtual dumps are
	// bit-identical across identical runs; real-backend dumps are
	// structurally identical but carry measured times.
	Metrics *MetricsDump `json:"metrics,omitempty"`
}

func (r *Report) String() string {
	if r.Backend == VirtualBackend {
		return fmt.Sprintf("backend=%v model=%v workers=%d tasks=%d makespan=%d util=%.3f ratio=%.1f",
			r.Backend, r.Model, r.Workers, r.Tasks, r.Makespan, r.Utilization, r.MgmtRatio)
	}
	return fmt.Sprintf("backend=%v manager=%v workers=%d tasks=%d wall=%v util=%.3f ratio=%.1f",
		r.Backend, r.Manager, r.Workers, r.Tasks, r.Wall, r.Utilization, r.MgmtRatio)
}

// Snapshot is one live observation of a running job, streamed to the
// Runner's Observer. Real backends sample it on a wall clock
// (WithObservePeriod); the virtual backend emits it at deterministic
// virtual-time marks (about 16 per run), so observed simulations remain
// reproducible. All counters are cumulative since the run
// started. The json tags pin the service daemon's SSE event schema.
type Snapshot struct {
	// Backend identifies the emitting machine.
	Backend BackendKind `json:"backend"`
	// Final marks the closing snapshot, emitted once on every outcome:
	// with the finished run's totals on success, with the counters
	// accumulated so far on failure or cancellation.
	Final bool `json:"final"`
	// Elapsed is wall-clock time since the run started (real backends).
	Elapsed time.Duration `json:"elapsed_ns"`
	// VirtualTime is the simulation frontier (virtual backend).
	VirtualTime int64 `json:"virtual_time,omitempty"`
	// Tasks is the number of tasks executed so far.
	Tasks int64 `json:"tasks"`
	// Jobs is the number of still-unfinished jobs (1 for single-job
	// runs until they finish).
	Jobs int `json:"jobs"`
	// BackfillTasks counts cross-job tasks so far (pool runs).
	BackfillTasks int64 `json:"backfill_tasks"`
	// Utilization is compute / (Workers * elapsed) so far.
	Utilization float64 `json:"utilization"`
	// OverheadShare is management / (Workers * elapsed) so far — live
	// work inflation, the quantity the paper's rundown analysis is
	// about.
	OverheadShare float64 `json:"overhead_share"`
	// Batch is the adaptive controller's current refill batch (virtual
	// Adaptive model; zero elsewhere).
	Batch int `json:"batch,omitempty"`
}

// Observer receives Snapshots from a running job. The callback must be
// quick: on real backends it delays only the sampler goroutine, on the
// virtual backend it runs inline in the event loop.
type Observer func(Snapshot)
