// Package telemetry is the unified metrics core: a deterministic,
// amortized-zero-alloc registry of counters, gauges, and log-linear
// duration histograms, instrumented at the same scheduling chokepoints
// the flight recorder (internal/trace) and fault injector
// (internal/fault) already use — on every backend.
//
// The recording discipline matches the trace rings: hot-path counters
// are sharded per worker into 64-byte-padded cells so two workers never
// contend on one cache line, histogram observation is one atomic add
// into a fixed bucket array, and gauge stores are single atomics. No
// recording operation allocates, takes a lock, or branches on more than
// the caller's own nil check — so a metrics-on run prices within noise
// of a metrics-off run (pinned by BenchmarkMetricsChainFineOn/Off).
//
// Determinism: the simulator records the same metric set in virtual
// units from its single event-loop goroutine, so identical seeds yield
// bit-identical Dumps (golden-tested). Real backends record wall-clock
// nanoseconds; their dumps are structurally identical but carry
// measured times.
//
// Exposition is multi-format: Registry.Dump returns the deterministic
// JSON-marshalable form wired into rundown's Report.Metrics, Handler
// serves the Prometheus text format, and Publish mirrors the registry
// into expvar — the mount points a long-lived service front door
// (ROADMAP item 1) needs.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a registered metric.
type Kind uint8

const (
	// KindCounter is a monotonically increasing sum, sharded per worker.
	KindCounter Kind = iota
	// KindGauge is a last-write-wins instantaneous value.
	KindGauge
	// KindHistogram is a log-linear distribution of non-negative values.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// cell is one worker's counter shard. The padding keeps two adjacent
// cells out of one cache line — the same discipline as the trace rings:
// each worker bumps its own cell on every task, and cross-line sharing
// would put that store on the neighbor's hot path.
type cell struct {
	v atomic.Int64
	_ [64 - 8]byte
}

// Counter is a monotonically increasing sum sharded across per-worker
// cells. Add and Inc are safe from any number of goroutines; Value sums
// the cells (a racing read may miss in-flight adds, like any metrics
// snapshot).
type Counter struct {
	name  string
	help  string
	cells []cell
}

// Add adds delta to worker w's shard. Out-of-range worker indexes
// (including -1 for "no worker") fold into shard 0, so callers with
// synthetic worker numbers never fault.
func (c *Counter) Add(w int, delta int64) {
	if w < 0 || w >= len(c.cells) {
		w = 0
	}
	c.cells[w].v.Add(delta)
}

// Inc adds 1 to worker w's shard.
func (c *Counter) Inc(w int) { c.Add(w, 1) }

// Value sums the shards.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value: last write wins.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Registry holds one run's (or one process's) metrics. Registration is
// idempotent by name — two calls with one name return the same metric —
// and Dump lists metrics sorted by name, so a registry filled in any
// order dumps identically.
type Registry struct {
	shards   int
	timeUnit string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds a registry whose counters shard across `shards`
// worker cells (minimum 1). timeUnit labels the dump's time base:
// "ns" for wall-clock backends, "virtual" for the simulator.
func NewRegistry(shards int, timeUnit string) *Registry {
	if shards < 1 {
		shards = 1
	}
	if timeUnit == "" {
		timeUnit = "ns"
	}
	return &Registry{
		shards:   shards,
		timeUnit: timeUnit,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// TimeUnit reports the registry's time base label.
func (r *Registry) TimeUnit() string { return r.timeUnit }

// Counter returns the counter registered under name, creating it on
// first use. Registration races are resolved under the registry mutex;
// the returned counter is shared by every caller of the same name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help, cells: make([]cell, r.shards)}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name, help: help}
	r.hists[name] = h
	return h
}

// visit walks the registered metrics sorted by name, calling exactly
// one of the callbacks per metric. It snapshots the name sets under the
// mutex and reads values lock-free afterwards.
func (r *Registry) visit(onCounter func(*Counter), onGauge func(*Gauge), onHist func(*Histogram)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	cs := make(map[string]*Counter, len(r.counters))
	gs := make(map[string]*Gauge, len(r.gauges))
	hs := make(map[string]*Histogram, len(r.hists))
	for n, c := range r.counters {
		names = append(names, n)
		cs[n] = c
	}
	for n, g := range r.gauges {
		names = append(names, n)
		gs[n] = g
	}
	for n, h := range r.hists {
		names = append(names, n)
		hs[n] = h
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		switch {
		case cs[n] != nil:
			onCounter(cs[n])
		case gs[n] != nil:
			onGauge(gs[n])
		default:
			onHist(hs[n])
		}
	}
}

// Snapshot is one observation of a running machine — the pool on
// goroutines (sampled on a wall-clock ticker, closed by one Final snapshot
// from Close) and the virtual-time engine (emitted at deterministic
// frontier marks, closed by one Final snapshot on every outcome). All
// values are cumulative since the machine started. The json tags pin the
// service daemon's pool-status and SSE wire form; the two fields only the
// virtual engine fills are omitted there.
type Snapshot struct {
	// Elapsed is the wall-clock time since the pool started (zero in
	// virtual time).
	Elapsed time.Duration `json:"elapsed_ns"`
	// VirtualTime is the virtual engine's frontier when the snapshot
	// fired: the latest completion event or completion-processing finish,
	// the quantity the makespan reports at the end.
	VirtualTime int64 `json:"virtual_time,omitempty"`
	// Jobs is the number of jobs submitted so far; ActiveJobs how many of
	// them have started and not finished, a job between attempts
	// included; Queued how many wait behind admission control. The
	// still-unfinished jobs are ActiveJobs + Queued.
	Jobs       int `json:"jobs"`
	ActiveJobs int `json:"active_jobs"`
	Queued     int `json:"queued"`
	// Tasks counts tasks across all jobs — executed on goroutines,
	// dispatched in virtual time; BackfillTasks the subset run by workers
	// homed on another job; MaxBackfillTask the largest backfill grain any
	// worker has held (granules). The virtual engine reports no backfill
	// here.
	Tasks           int64 `json:"tasks"`
	BackfillTasks   int64 `json:"backfill_tasks"`
	MaxBackfillTask int64 `json:"max_backfill_task"`
	// Compute, Mgmt and Idle are the summed execution, management and
	// parked time so far — nanoseconds on goroutines, virtual units in
	// virtual time. Virtual Compute counts completed tasks only and
	// virtual Idle closed parks only, so Utilization never reads above 1.
	Compute time.Duration `json:"compute_ns"`
	Mgmt    time.Duration `json:"mgmt_ns"`
	Idle    time.Duration `json:"idle_ns"`
	// Utilization is Compute / (workers × elapsed) so far; OverheadShare
	// the same ratio for Mgmt — live work inflation (see Shares).
	Utilization   float64 `json:"utilization"`
	OverheadShare float64 `json:"overhead_share"`
	// Batch is the virtual Adaptive model's current refill batch (zero
	// elsewhere) — live evidence of the controller moving.
	Batch int `json:"batch,omitempty"`
	// Final marks the closing snapshot, carrying the finished totals.
	Final bool `json:"final"`
}

// Shares computes the utilization and overhead-share ratios every
// backend reports: compute (or management) time over the machine's
// capacity, workers × elapsed. It is the one copy of the sampling math
// the executive and tenant observers used to duplicate. elapsed <= 0
// returns zeros (a run that has not started has no capacity).
func Shares(compute, mgmt int64, workers int, elapsed int64) (util, overhead float64) {
	if elapsed <= 0 || workers <= 0 {
		return 0, 0
	}
	capacity := float64(workers) * float64(elapsed)
	return float64(compute) / capacity, float64(mgmt) / capacity
}
