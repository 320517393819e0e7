package telemetry

import "sync"

// Set binds the standard rundown metric taxonomy — the one metric set
// every backend records, so a dump reads the same whether the run was
// priced in virtual time or executed on goroutines. NewSet registers
// every member idempotently, which means the full set appears in every
// dump (zero-valued where a backend has nothing to record: the
// simulator's sharded model has no steals, a run without faults fires
// none) — a deterministic shape the goldens rely on.
//
// Time-valued members (compute/mgmt/idle time, the wait histograms)
// record the registry's time base: wall-clock nanoseconds on real
// backends, virtual units on the simulator.
type Set struct {
	// Registry is the registry the set was built on.
	Registry *Registry

	// Dispatches counts tasks handed to workers; Completions counts
	// tasks finishing. Backfill counts the cross-job subset of
	// dispatches (tenancy only).
	Dispatches  *Counter
	Completions *Counter
	Backfill    *Counter

	// ComputeTime / MgmtTime / IdleTime / BackfillTime split where
	// processor time went — the paper's rundown accounting as live
	// counters. OverheadShare and Utilization derive from these plus
	// elapsed time (see Shares).
	ComputeTime  *Counter
	MgmtTime     *Counter
	IdleTime     *Counter
	BackfillTime *Counter

	// StealAttempts / StealWins / StealLoses count the sharded
	// manager's steal sweeps (goroutine backends only).
	StealAttempts *Counter
	StealWins     *Counter
	StealLoses    *Counter

	// Faults counts injected fault firings; Retries counts job attempt
	// restarts; DeadlineMisses counts jobs aborted past their deadline;
	// Retunes counts adaptive-controller parameter changes.
	Faults         *Counter
	Retries        *Counter
	DeadlineMisses *Counter
	Retunes        *Counter

	// JobsSubmitted / JobsDone count job lifecycle; ActiveJobs gauges
	// the currently incomplete jobs.
	JobsSubmitted *Counter
	JobsDone      *Counter
	ActiveJobs    *Gauge

	// ReadyOccupancy gauges the ready tasks buffered ahead of the
	// workers: the sharded and async managers' ready lanes together, or
	// the virtual Async model's ready buffer;
	// BatchSize gauges the adaptive controller's current refill batch.
	ReadyOccupancy *Gauge
	BatchSize      *Gauge

	// DispatchWait distributes ask-to-dispatch latency: how long a
	// worker needing work waited on management before a task was in
	// hand.
	DispatchWait *Histogram
	// QueueWait distributes per-job submit-to-activation wait
	// (admission control queueing; zero when admitted immediately).
	QueueWait *Histogram
	// DeadlineMargin distributes how much budget deadlined jobs had
	// left at completion (met deadlines only; misses count in
	// DeadlineMisses).
	DeadlineMargin *Histogram

	// classes memoises Class per class name (under classMu): it is
	// called on every submit, reject and finish.
	classMu sync.Mutex
	classes map[string]ClassCounters
}

// NewSet registers the standard metric taxonomy on r and returns the
// bound set. Calling it twice on one registry returns sets sharing the
// same underlying metrics.
func NewSet(r *Registry) *Set {
	return &Set{
		Registry: r,
		classes:  make(map[string]ClassCounters),

		Dispatches:  r.Counter("rundown_dispatch_total", "tasks handed to workers"),
		Completions: r.Counter("rundown_complete_total", "tasks completed"),
		Backfill:    r.Counter("rundown_backfill_total", "cross-job tasks dispatched to foreign-home workers"),

		ComputeTime:  r.Counter("rundown_compute_time_total", "summed granule execution time"),
		MgmtTime:     r.Counter("rundown_mgmt_time_total", "summed management (executive) time"),
		IdleTime:     r.Counter("rundown_idle_time_total", "summed parked worker time"),
		BackfillTime: r.Counter("rundown_backfill_time_total", "summed cross-job execution time"),

		StealAttempts: r.Counter("rundown_steal_attempt_total", "sharded-manager steal sweeps started"),
		StealWins:     r.Counter("rundown_steal_win_total", "steal sweeps that took a task"),
		StealLoses:    r.Counter("rundown_steal_lose_total", "steal sweeps that found every victim dry"),

		Faults:         r.Counter("rundown_fault_total", "injected fault firings"),
		Retries:        r.Counter("rundown_retry_total", "job attempt restarts"),
		DeadlineMisses: r.Counter("rundown_deadline_miss_total", "jobs aborted past their deadline"),
		Retunes:        r.Counter("rundown_retune_total", "adaptive controller parameter changes"),

		JobsSubmitted: r.Counter("rundown_jobs_total", "jobs submitted"),
		JobsDone:      r.Counter("rundown_jobs_done_total", "jobs finished (any outcome)"),
		ActiveJobs:    r.Gauge("rundown_jobs_active", "currently incomplete jobs"),

		ReadyOccupancy: r.Gauge("rundown_ready_occupancy", "async ready-buffer depth"),
		BatchSize:      r.Gauge("rundown_batch_size", "adaptive refill batch size"),

		DispatchWait:   r.Histogram("rundown_dispatch_wait", "ask-to-dispatch latency"),
		QueueWait:      r.Histogram("rundown_queue_wait", "per-job submit-to-activation wait"),
		DeadlineMargin: r.Histogram("rundown_deadline_margin", "budget left at completion of deadlined jobs"),
	}
}

// ClassCounters is the per-service-class admission slice of the
// taxonomy: rundown_class_<class>_{jobs,rejected,done}_total.
type ClassCounters struct {
	Submitted *Counter
	Rejected  *Counter
	Done      *Counter
}

// Class registers (idempotently) and returns the counters for one
// service class. Unlike the fixed members above, class series appear in
// a dump only once a classified job has touched the pool — the
// zero-class golden shape is untouched. The class name is sanitized
// into the metric name (lowercased; anything outside [a-z0-9_] becomes
// '_').
func (s *Set) Class(class string) ClassCounters {
	s.classMu.Lock()
	defer s.classMu.Unlock()
	c, ok := s.classes[class]
	if !ok {
		n := sanitizeClass(class)
		c = ClassCounters{
			Submitted: s.Registry.Counter("rundown_class_"+n+"_jobs_total", "jobs submitted in class "+class),
			Rejected:  s.Registry.Counter("rundown_class_"+n+"_rejected_total", "jobs rejected by admission in class "+class),
			Done:      s.Registry.Counter("rundown_class_"+n+"_done_total", "jobs finished in class "+class),
		}
		s.classes[class] = c
	}
	return c
}

// sanitizeClass maps an arbitrary class label into a metric-name-safe
// token.
func sanitizeClass(class string) string {
	b := []byte(class)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c - 'A' + 'a'
		default:
			b[i] = '_'
		}
	}
	if len(b) == 0 {
		return "unclassified"
	}
	return string(b)
}
