package tenant

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/share"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Job is the handle for one submitted program. It is created by
// Pool.Submit and owned by the pool until finished.
type Job struct {
	pool *Pool
	cfg  JobConfig
	idx  int

	prog *core.Program
	opt  core.Options // retained so a retry can recompile the scheduler
	// state is the lifecycle word, written only by move under
	// pool.mu and read lock-free; cur is the current attempt, stored at
	// Submit and swapped only by Pool.reactivate, under pool.mu, while the
	// job is in Backoff (see lifecycle.go).
	state atomic.Uint32
	cur   atomic.Pointer[attempt]

	// pol is the job's standing in the dispatch policy (in its live set
	// while the job is Running), guarded by pool.mu.
	pol share.Job

	// The job's compute time and task count live in its managers, totalled
	// under the lock each already holds (attempt.totals).
	backfillTasks   atomic.Int64 // tasks run by foreign-home workers
	backfillCompute atomic.Int64

	// attempts is 1 plus the retries spent so far (it runs one ahead of
	// cur.n during a backoff); retriesLeft is guarded by pool.mu.
	attempts    atomic.Int32
	retriesLeft int
	// lastTouch is the clock.Stamp of the job's last dispatch or
	// completion submission — the watchdog's wedge signal, an interval
	// measured on the monotonic clock so a wall-clock step cannot fail a
	// healthy job. Stored only while the watchdog is armed (Pool.watch).
	lastTouch atomic.Int64
	// deadline is the job's deadline timer (nil without one), stopped
	// when the job finishes. Guarded by pool.mu.
	deadline *time.Timer

	submitted time.Time
	end       time.Time // guarded by pool.mu until done is closed
	err       error     // guarded by pool.mu until done is closed
	done      chan struct{}

	// queueWaitNS is the submit-to-first-activation wait (for a job
	// retired while still queued, the whole life). Written under pool.mu
	// before done closes; read after Wait.
	queueWaitNS int64

	// traceFrom and traceTo bracket the job's records in the pool's
	// flight recorder: read at first activation (moved up at each retry)
	// and at retirement. Guarded by pool.mu; nil until the job gets there.
	traceFrom, traceTo trace.Cursor
}

// Attempts reports how many attempts the job has been given: 1 plus the
// number of retries taken so far.
func (j *Job) Attempts() int { return int(j.attempts.Load()) }

// Name returns the job's label.
func (j *Job) Name() string { return j.cfg.Name }

// Index is the job's pool-assigned index in submit order — the Job
// column of the pool's flight-recorder records, so a caller can carve
// this job's schedule out of a pool trace with Trace.FilterJob.
func (j *Job) Index() int { return j.idx }

// Trace extracts the job's schedule from the pool's flight recorder: what
// Recorder.Take().FilterJob(j.Index()) returns, read from the job's own
// extent of the recorder only, so the cost is the events recorded while
// the job ran however long the pool has lived. Safe at any time; a job
// still running yields its schedule so far. Records of tasks still in
// flight when a job is aborted land after its extent closed and are left
// out (their completions are dropped by the manager the same way). The
// error is trace.ErrRecycled when a bounded recorder no longer retains
// the extent.
func (j *Job) Trace() (*trace.Trace, error) {
	rec := j.pool.cfg.Trace
	if rec == nil {
		return nil, fmt.Errorf("tenant: job %q: the pool has no trace recorder", j.cfg.Name)
	}
	j.pool.mu.Lock()
	from, to := j.traceFrom, j.traceTo
	j.pool.mu.Unlock()
	if from == nil {
		// Still queued: nothing recorded yet.
		from = rec.Cursor()
	}
	return rec.TakeJob(j.idx, from, to)
}

// Class returns the job's service class ("" = unclassified).
func (j *Job) Class() string { return j.cfg.Class }

// State reports where the job is in its lifecycle. Safe to poll; Done is
// the blocking form of "reached a terminal state".
func (j *Job) State() State { return State(j.state.Load()) }

// Tasks reports how many of the job's tasks have had their completions
// applied so far, dead attempts' included. Safe to poll while the job runs
// (monotonic; one entry of the current manager's lock).
func (j *Job) Tasks() int64 { return j.cur.Load().totals().tasks }

// Done returns a channel closed when the job finishes (successfully or
// not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its report: Wall is
// submit-to-retire, Mgmt is the job's own manager-serialized management
// time, Utilization is against the full pool (a job sharing the pool cannot
// use more). Idle is zero — parked time belongs to the pool, not to any one
// job (the Runner fills it in for a one-job run, where the two coincide).
func (j *Job) Wait() (*executive.Report, error) {
	<-j.done
	// Scheduler statistics come from one attempt, the job's last; the totals
	// from that attempt's manager and the constant it carries for the
	// attempts before. An async manager's management goroutine may still be
	// winding down for a moment after the job is retired; join it so the
	// statistics are quiescent.
	a := j.cur.Load()
	a.mgr.Join()
	tot := a.totals()
	rep := &executive.Report{
		Manager: j.pool.cfg.Manager,
		Wall:    j.end.Sub(j.submitted),
		Compute: tot.compute,
		Mgmt:    tot.mgmt,
		Tasks:   tot.tasks,
		Sched:   a.sched.Stats(),
	}
	if rep.Mgmt > 0 {
		rep.MgmtRatio = float64(rep.Compute) / float64(rep.Mgmt)
	}
	rep.Utilization, _ = telemetry.Shares(
		int64(rep.Compute), int64(rep.Mgmt), j.pool.cfg.Workers, int64(rep.Wall))
	return rep, j.err
}

// QueueWait reports how long the job waited behind admission control
// between Submit and its first activation — zero when it started
// immediately, its whole lifetime when it was retired before ever
// running. Valid after Wait.
func (j *Job) QueueWait() time.Duration { return time.Duration(j.queueWaitNS) }

// DeadlineMargin reports how much of the job's deadline budget was left
// when it finished (negative when it was retired past the deadline) and
// whether the job had a deadline at all. Valid after Wait.
func (j *Job) DeadlineMargin() (time.Duration, bool) {
	if j.cfg.Deadline <= 0 {
		return 0, false
	}
	return j.cfg.Deadline - j.end.Sub(j.submitted), true
}

// BackfillTasks reports how many of the job's tasks were executed by
// workers homed on another job (valid after Wait).
func (j *Job) BackfillTasks() int64 { return j.backfillTasks.Load() }

// BackfillCompute reports the summed execution time of those tasks.
func (j *Job) BackfillCompute() time.Duration {
	return time.Duration(j.backfillCompute.Load())
}
