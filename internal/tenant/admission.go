package tenant

// Class-aware admission: the pool exposes enough of its measured load —
// admission backlog, backfill grain sizes — for a caller-supplied
// predicate to decide whether a newly submitted job's service class can
// be honored, without the pool itself learning any class semantics. The
// service layer builds its latency-class slowdown projection on top of
// this view plus the telemetry histograms.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// AdmitFunc is a caller-supplied admission predicate, consulted by
// Submit under the pool lock with a consistent load view. Returning a
// non-nil error rejects the job; Submit wraps it with the job name.
type AdmitFunc func(jc JobConfig, v AdmissionView) error

// AdmissionView is the pool-load snapshot handed to Config.Admit. All
// values are observed atomically under the pool lock at Submit time.
type AdmissionView struct {
	// Workers is the pool's worker count.
	Workers int
	// Active and Queued are the current active-set and admission-queue
	// sizes (the submitted job counted in neither yet). Active counts the
	// jobs waiting out a retry backoff too: each keeps its MaxActive slot.
	Active int
	Queued int
	// MaxBackfillTask is the largest backfill task (in granules) any
	// worker has held so far — the pool's measured non-preemptible
	// foreign-grain bound (see Config.PreemptBound).
	MaxBackfillTask int64
	// BackfillTasks counts backfill dispatches so far.
	BackfillTasks int64
}

// admissionViewLocked builds the load view for Config.Admit. Caller
// holds p.mu.
func (p *Pool) admissionViewLocked() AdmissionView {
	return AdmissionView{
		Workers:         p.cfg.Workers,
		Active:          p.activeLocked(),
		Queued:          len(p.waitq),
		MaxBackfillTask: p.maxBackfillTask.Load(),
		BackfillTasks:   p.backfillTasks.Load(),
	}
}

// classOutcome selects which per-class counter classInc bumps.
type classOutcome int

const (
	classSubmitted classOutcome = iota
	classRejected
)

// classInc records a per-class admission outcome in the metric set.
// Unclassified jobs ("") cost nothing; classified ones register their
// counters on first use so the fixed rundown_* taxonomy (and the golden
// dumps pinned on it) is untouched when no classes are in play.
func (p *Pool) classInc(class string, o classOutcome) {
	if p.met == nil || class == "" {
		return
	}
	c := p.met.Class(class)
	switch o {
	case classSubmitted:
		c.Submitted.Inc(0)
	case classRejected:
		c.Rejected.Inc(0)
	}
}

// Sample returns a live snapshot of the pool — the same observation a
// configured Observer receives, on demand. Safe to call concurrently
// with everything, including after Close (Final stays false; the
// closing snapshot belongs to the Observer path).
func (p *Pool) Sample() telemetry.Snapshot { return p.snapshot() }

// InjectFaults appends rules to the live fault plan of a pool built
// with Config.DynamicFaults (or Config.Faults): the staging hook that
// lets a service daemon arm a campaign scoped to a just-submitted job.
// Rules take effect for dispatches after the call returns.
func (p *Pool) InjectFaults(rules []fault.Rule) error {
	if p.plan == nil {
		return fmt.Errorf("tenant: pool built without DynamicFaults or Faults: no live plan to extend")
	}
	p.plan.Extend(rules)
	return nil
}

// Abort fails this one job with err — the single-job counterpart of
// Pool.Abort, and the service daemon's POST /v1/jobs/{id}/abort. A job
// still queued behind admission control or backing off between attempts
// retires directly; a running job is aborted through its manager, which
// refuses if the state machine already completed (the job keeps its
// results and Wait returns nil). A finished job is left untouched.
func (j *Job) Abort(err error) {
	j.pool.mu.Lock()
	j.pool.kill(j, err)
	j.pool.mu.Unlock()
}
