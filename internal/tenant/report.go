package tenant

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Report aggregates a pool's lifetime measurements (NewPool to Close).
// Per-job measurements come from Job.Wait.
type Report struct {
	// Workers is the pool's worker count.
	Workers int `json:"workers"`
	// Jobs is the number of jobs submitted over the pool's lifetime.
	Jobs int `json:"jobs"`
	// Stalled is the number of jobs failed by the pool stall detector.
	Stalled int `json:"stalled,omitempty"`
	// Wall is the pool's lifetime.
	Wall time.Duration `json:"wall_ns"`
	// Compute is the summed granule execution time across all jobs.
	Compute time.Duration `json:"compute_ns"`
	// Mgmt is the summed manager-serialized management time across jobs.
	Mgmt time.Duration `json:"mgmt_ns"`
	// Idle is the summed parked worker time.
	Idle time.Duration `json:"idle_ns"`
	// Tasks counts executed tasks across all jobs.
	Tasks int64 `json:"tasks"`
	// BackfillTasks counts tasks executed by a worker homed on another
	// job — the cross-tenancy work that filled rundowns.
	BackfillTasks int64 `json:"backfill_tasks"`
	// BackfillCompute is the summed execution time of those tasks.
	BackfillCompute time.Duration `json:"backfill_compute_ns"`
	// BackfillShare is BackfillCompute / Compute (0 when Compute is 0).
	BackfillShare float64 `json:"backfill_share"`
	// MaxBackfillTask is the largest backfill task observed, in granules —
	// the measured enforcement of Config.PreemptBound (0 when no task was
	// backfilled).
	MaxBackfillTask int64 `json:"max_backfill_task"`
	// Utilization is Compute / (Workers * Wall).
	Utilization float64 `json:"utilization"`
	// Faults is the number of injected faults that fired (0 without a
	// fault campaign).
	Faults int64 `json:"faults,omitempty"`
	// Retries counts job attempt restarts across the pool's lifetime.
	Retries int64 `json:"retries,omitempty"`
}

func (r *Report) String() string {
	return fmt.Sprintf("workers=%d jobs=%d wall=%v compute=%v mgmt=%v idle=%v tasks=%d backfill=%d (%.1f%%) util=%.3f",
		r.Workers, r.Jobs, r.Wall, r.Compute, r.Mgmt, r.Idle, r.Tasks,
		r.BackfillTasks, r.BackfillShare*100, r.Utilization)
}

// report builds the pool report. Called after the workers have joined.
func (p *Pool) report() *Report {
	r := &Report{
		Workers:         p.cfg.Workers,
		Jobs:            len(p.jobs),
		Stalled:         p.stalled,
		Wall:            p.end.Sub(p.start),
		Idle:            time.Duration(p.idleNS.Load()),
		BackfillTasks:   p.backfillTasks.Load(),
		BackfillCompute: time.Duration(p.backfillCompute.Load()),
		MaxBackfillTask: p.maxBackfillTask.Load(),
		Faults:          p.plan.Injected(),
		Retries:         p.retries.Load(),
	}
	for _, j := range p.jobs {
		tot := j.cur.Load().totals()
		r.Compute += tot.compute
		r.Mgmt += tot.mgmt
		r.Tasks += tot.tasks
	}
	if r.Compute > 0 {
		r.BackfillShare = float64(r.BackfillCompute) / float64(r.Compute)
	}
	r.Utilization, _ = telemetry.Shares(
		int64(r.Compute), int64(r.Mgmt), r.Workers, int64(r.Wall))
	return r
}
