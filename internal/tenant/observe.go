package tenant

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the pool's observability surface: a pool built with
// Config.Observer is sampled by a dedicated goroutine at
// Config.ObservePeriod for as long as the pool lives, and Close emits
// one Final snapshot built from the pool report. Sampling only reads
// totals the pool and its jobs' managers already keep (one entry of each
// manager's lock per sample), so observation does not perturb dispatch.

// Snapshot is one observation of a live pool. All values are cumulative
// since NewPool. The json tags pin the service daemon's pool-status and
// SSE wire form.
type Snapshot struct {
	// Elapsed is the wall-clock time since the pool started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Jobs is the number of jobs submitted so far; ActiveJobs how many
	// are still incomplete; Queued how many wait behind admission
	// control.
	Jobs       int `json:"jobs"`
	ActiveJobs int `json:"active_jobs"`
	Queued     int `json:"queued"`
	// Tasks counts executed tasks across all jobs; BackfillTasks the
	// subset run by workers homed on another job; MaxBackfillTask the
	// largest backfill grain any worker has held (granules).
	Tasks           int64 `json:"tasks"`
	BackfillTasks   int64 `json:"backfill_tasks"`
	MaxBackfillTask int64 `json:"max_backfill_task"`
	// Compute, Mgmt and Idle are the summed execution, management, and
	// pool-parked durations so far.
	Compute time.Duration `json:"compute_ns"`
	Mgmt    time.Duration `json:"mgmt_ns"`
	Idle    time.Duration `json:"idle_ns"`
	// Utilization is Compute / (Workers * Elapsed) so far; OverheadShare
	// the same ratio for Mgmt.
	Utilization   float64 `json:"utilization"`
	OverheadShare float64 `json:"overhead_share"`
	// Final marks the closing snapshot Close emits after the workers
	// have joined.
	Final bool `json:"final"`
}

// snapshot builds a live observation of the pool.
func (p *Pool) snapshot() Snapshot {
	p.mu.Lock()
	jobs := append([]*Job(nil), p.jobs...)
	active := len(p.active)
	queued := len(p.waitq)
	p.mu.Unlock()
	sn := Snapshot{
		Elapsed:         time.Since(p.start),
		Jobs:            len(jobs),
		ActiveJobs:      active,
		Queued:          queued,
		BackfillTasks:   p.backfillTasks.Load(),
		MaxBackfillTask: p.maxBackfillTask.Load(),
		Idle:            time.Duration(p.idleNS.Load()),
	}
	for _, j := range jobs {
		tot := j.cur.Load().totals()
		sn.Tasks += tot.tasks
		sn.Compute += tot.compute
		sn.Mgmt += tot.mgmt
	}
	sn.Utilization, sn.OverheadShare = telemetry.Shares(
		int64(sn.Compute), int64(sn.Mgmt), p.cfg.Workers, int64(sn.Elapsed))
	// Each sample also mirrors the management total into the metric set,
	// so a Prometheus scrape between samples sees fresh time shares.
	p.noteMgmt(int64(sn.Mgmt))
	return sn
}

// noteMgmt copies the pool's summed per-job management time into the
// metric set as a counter delta. Management accrues inside the per-job
// managers (which know nothing of the pool's set), so the pool syncs the
// total at its observation points: every sampler tick and Close. The
// sampler goroutine and Close may race; metMu serializes the seen mark.
func (p *Pool) noteMgmt(total int64) {
	if p.met == nil {
		return
	}
	p.metMu.Lock()
	if d := total - p.mgmtSeen; d > 0 {
		p.met.MgmtTime.Add(0, d)
		p.mgmtSeen = total
	}
	p.metMu.Unlock()
}

// defaultObservePeriod is the sampling period when Config.ObservePeriod is
// unset.
const defaultObservePeriod = 10 * time.Millisecond

// sampler periodically invokes a sample function on its own goroutine — the
// lifecycle behind the pool's observer. stop halts the ticker and joins the
// goroutine (leak-free teardown); the pool emits its Final snapshot itself
// after stop, so a final observation never races a live sample.
type sampler struct {
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// startSampler begins calling sample every period (<= 0 selects
// defaultObservePeriod); sample must be safe to call concurrently with the
// observed pool (read atomics and lock-guarded accessors only).
func startSampler(period time.Duration, sample func()) *sampler {
	if period <= 0 {
		period = defaultObservePeriod
	}
	s := &sampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// stop halts sampling and joins the sampler goroutine. Safe on a nil
// receiver and idempotent (even across concurrent calls).
func (s *sampler) stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// startObserver spawns the sampling goroutine. Caller ensures cfg.Observer
// is non-nil.
func (p *Pool) startObserver() {
	p.sampler = startSampler(p.cfg.ObservePeriod, func() {
		p.cfg.Observer(p.snapshot())
	})
}

// stopObserver emits the Final snapshot built from the finished report.
// Called by Close after the workers and the sampling goroutine have
// joined; safe when no observer was configured, and idempotent so a second
// Close stays as harmless as it was before observers existed (only the
// first Close emits the Final snapshot).
func (p *Pool) stopObserver(r *Report) {
	if p.sampler == nil {
		return
	}
	if !p.obsFinal.CompareAndSwap(false, true) {
		return
	}
	_, overhead := telemetry.Shares(int64(r.Compute), int64(r.Mgmt), r.Workers, int64(r.Wall))
	p.cfg.Observer(Snapshot{
		Elapsed:         r.Wall,
		Jobs:            r.Jobs,
		ActiveJobs:      0,
		Tasks:           r.Tasks,
		BackfillTasks:   r.BackfillTasks,
		MaxBackfillTask: r.MaxBackfillTask,
		Compute:         r.Compute,
		Mgmt:            r.Mgmt,
		Idle:            r.Idle,
		Utilization:     r.Utilization,
		OverheadShare:   overhead,
		Final:           true,
	})
}
