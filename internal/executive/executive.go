// Package executive is the management layer between a core.Scheduler and
// the goroutines that run its tasks. It is one layer of three:
//
//   - the state machine (core.Scheduler, seen through the StateMachine
//     interface) holds every scheduling decision and no synchronization;
//   - a Manager owns all synchronization policy around the state machine:
//     a worker enters it once per task to report a completion and take the
//     next task, and is never parked there;
//   - the worker loop — one for the whole repository, tenant.Pool's —
//     executes tasks (RunTask), parks when nothing is dispatchable,
//     detects stalls and accounts idle time. This package has no workers.
//
// Three managers are provided, in two implementations. SerialManager
// guards every state-machine interaction with one global mutex, exactly
// serializing management the way the single UNIVAC executive did — the
// paper-faithful baseline whose lock time is measured as management time.
// ShardedManager and AsyncManager are one lane manager (lane.go): each
// worker takes tasks from its own ready lane and queues completions in its
// own completion lane without a lock, and the management cycle that
// drains and refills the lanes runs either on the worker that ran dry
// (inline: ShardedManager, and AsyncManager with no spare core) or on one
// dedicated management goroutine — the paper's separate executive
// processor (AsyncManager with a spare core).
package executive

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config parameterizes a Manager.
type Config struct {
	// Workers is the number of worker goroutines that will enter the
	// manager (>=1). Management runs inline on whichever worker needs it,
	// under the manager's lock, except under the async manager with a
	// spare core (GOMAXPROCS > Workers), which adds one dedicated
	// management goroutine beside the workers (not counted in Workers or
	// in the utilization denominator — the paper's separate executive
	// processor).
	Workers int
	// Manager selects the management layer (SerialManager default).
	Manager ManagerKind
	// DequeCap bounds each worker's ready lane (ShardedManager,
	// AsyncManager). <=0 selects 16, the per-worker look-ahead. The async
	// management goroutine overlaps deferred management with computation
	// while the lanes together hold more than a quarter of their capacity.
	DequeCap int
	// Batch is the completion batch: a worker publishes its completions
	// to the next management cycle with one store every Batch
	// (ShardedManager, AsyncManager). <=0 selects 8.
	Batch int
	// Metrics, when non-nil, is the telemetry set the manager records its
	// steal counters, refill batch size and ready-lane occupancy into.
	Metrics *telemetry.Set
}

// lookAhead is the lane manager's per-worker look-ahead: the tasks
// dispatched ahead of each worker, DequeCap's default.
const lookAhead = 16

// Report aggregates a run's measurements.
type Report struct {
	// Manager identifies the management layer that produced the run.
	Manager ManagerKind `json:"manager"`
	// Wall is the elapsed wall-clock time of the run.
	Wall time.Duration `json:"wall_ns"`
	// Compute is the summed time workers spent executing granule work.
	Compute time.Duration `json:"compute_ns"`
	// Mgmt is the summed time spent inside manager-serialized scheduler
	// calls (dispatch, completion processing, deferred management).
	Mgmt time.Duration `json:"mgmt_ns"`
	// Idle is the summed time workers spent parked waiting for work.
	Idle time.Duration `json:"idle_ns"`
	// Tasks is the number of tasks executed.
	Tasks int64 `json:"tasks"`
	// MgmtRatio is Compute/Mgmt — the paper's computation-to-management
	// ratio (0 when Mgmt is 0).
	MgmtRatio float64 `json:"mgmt_ratio"`
	// Utilization is Compute / (Workers * Wall).
	Utilization float64 `json:"utilization"`
	// Sched holds the scheduler's operation counts.
	Sched core.Stats `json:"sched"`
}

func (r *Report) String() string {
	return fmt.Sprintf("manager=%v wall=%v compute=%v mgmt=%v idle=%v tasks=%d ratio=%.1f util=%.3f",
		r.Manager, r.Wall, r.Compute, r.Mgmt, r.Idle, r.Tasks, r.MgmtRatio, r.Utilization)
}

// RunTask runs the work function over the task's granules (outside any
// manager lock) — the worker loop's one execution chokepoint. A nil work
// function is a pure scheduling run. Panics in user work are captured and
// surfaced as run errors rather than tearing down the whole process.
func RunTask(work core.WorkFn, task core.Task) (err error) {
	if work == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("executive: work panicked in %v: %v", task, r)
		}
	}()
	for g := task.Run.Lo; g < task.Run.Hi; g++ {
		work(g)
	}
	return nil
}
