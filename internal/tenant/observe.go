package tenant

import (
	"time"

	"repro/internal/telemetry"
)

// This file is the pool's observability surface. One tally of the pool's
// cumulative totals feeds a live Sample, Close's report and the Final
// snapshot, and one ticker loop (sampler) drives both the Observer's
// samples and the stall watchdog. A pool built with Config.Observer is
// sampled every Config.ObservePeriod for as long as the pool lives, and
// Close emits one Final snapshot. Sampling only reads totals the pool and
// its jobs' managers already keep (one entry of each manager's lock per
// sample), so observation does not perturb dispatch.

// tally sums the pool's cumulative totals over jobs (every job submitted so
// far) at elapsed since the pool started. The job counts only the pool
// lock can read together, ActiveJobs and Queued, are the caller's.
func (p *Pool) tally(jobs []*Job, elapsed time.Duration) telemetry.Snapshot {
	sn := telemetry.Snapshot{
		Elapsed:         elapsed,
		Jobs:            len(jobs),
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
	return sn
}

// snapshot builds a live observation of the pool.
func (p *Pool) snapshot() telemetry.Snapshot {
	p.mu.Lock()
	jobs := append([]*Job(nil), p.jobs...)
	active, queued := p.activeLocked(), len(p.waitq)
	p.mu.Unlock()
	sn := p.tally(jobs, time.Since(p.start))
	sn.ActiveJobs, sn.Queued = active, queued
	// Each sample also mirrors the management total into the metric set,
	// so a Prometheus scrape between samples sees fresh time shares.
	p.noteMgmt(int64(sn.Mgmt))
	return sn
}

// activeLocked counts the jobs that have started and not finished: the
// active set and the jobs between attempts. Snapshot.ActiveJobs and the
// active-jobs gauge read it. Caller holds p.mu.
func (p *Pool) activeLocked() int { return len(p.active) + len(p.backoff) }

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

// sampler calls a function every period on its own goroutine: the pool's
// one ticker loop, behind the Observer's samples and the stall watchdog.
// stop halts the ticker and joins the goroutine (leak-free teardown).
type sampler struct {
	quit, done chan struct{}
}

// startSampler begins calling tick every period; tick must be safe to call
// concurrently with the pool's workers.
func startSampler(period time.Duration, tick func()) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				tick()
			}
		}
	}()
	return s
}

// stop halts the ticker and joins its goroutine. Safe on a nil receiver;
// called once, by Close.
func (s *sampler) stop() {
	if s == nil {
		return
	}
	close(s.quit)
	<-s.done
}
