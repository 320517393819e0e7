package rundown

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Option configures a Runner. Options are applied in order by New; an
// option that conflicts with one already applied makes New fail.
type Option func(*runnerConfig) error

// runnerConfig is the resolved Runner configuration. Zero value plus
// defaults = goroutine workers, serial manager, GOMAXPROCS of them.
type runnerConfig struct {
	workers    int
	workersSet bool

	manager    ExecManager
	managerSet bool

	adaptive   bool
	mgmtTarget float64

	dequeCap, batch int

	pool    bool
	virtual bool
	simCfg  SimConfig // valid when virtual

	observer      Observer
	observePeriod time.Duration

	traceOn bool
	traceW  io.Writer // nil = capture in Report.Trace only

	metricsOn  bool
	metricsReg *telemetry.Registry // caller-owned; nil = fresh per run

	faults       *fault.Spec
	liveFaults   bool
	maxActive    int
	queue        bool
	stallTimeout time.Duration
	preemptBound int
	admit        tenant.AdmitFunc

	// traceRec is a caller-owned long-lived recorder for StartPool (a
	// service daemon's per-job trace downloads); per-run tracing uses
	// newRecorder instead.
	traceRec *trace.Recorder
}

// WithWorkers sets the worker count (real backends) or the processor
// count P (virtual backend, unless WithVirtualTime's SimConfig.Procs is
// set). Unset, real backends use runtime.GOMAXPROCS(0); the virtual
// backend has no default — it requires a processor count through this
// option or SimConfig.Procs. Values < 1 are recorded verbatim and
// rejected by the backend at Run time.
func WithWorkers(n int) Option {
	return func(c *runnerConfig) error {
		c.workers = n
		c.workersSet = true
		return nil
	}
}

// WithManager selects the executive management layer (SerialManager,
// ShardedManager or AsyncManager; SerialManager default). On the virtual
// backend the manager picks the matching management resource model:
// serial prices as StealsWorker, sharded as ShardedMgmt (AdaptiveMgmt with
// WithAdaptiveBatching), async as AsyncMgmt. The paper's Dedicated model
// has no manager of its own: name it in WithVirtualTime's SimConfig.Mgmt.
func WithManager(m ExecManager) Option {
	return func(c *runnerConfig) error {
		c.manager = m
		c.managerSet = true
		return nil
	}
}

// WithAdaptiveBatching selects the adaptive batching controller with the
// given lock-overhead-share setpoint (<= 0 selects the default, 0.02): on
// the virtual backend, the Adaptive management model unless an async
// manager was chosen, Run and RunAll alike — ONE pool-wide controller
// retuning the shared batch knobs from a machine-wide starvation integral.
// Goroutine backends run the sharded manager with fixed parameters
// whatever this option says (a traced run records no retune events):
// workers park in the pool, above the manager, where the controller's
// shrink and starvation inputs cannot be measured, and no hardware
// benchmark separated the controller from fixed sharded.
func WithAdaptiveBatching(target float64) Option {
	return func(c *runnerConfig) error {
		c.adaptive = true
		c.mgmtTarget = target
		return nil
	}
}

// WithDequeCap bounds each worker's ready lane under the sharded and
// async managers; n <= 0 selects 16. The async management goroutine
// overlaps deferred management with computation while the lanes together
// hold more than a quarter of their capacity. In virtual time the Async
// model's ready buffer holds n tasks per processor; unset, it keeps its
// own default, 2*workers split across the jobs, minimum 8 each.
func WithDequeCap(n int) Option {
	return func(c *runnerConfig) error { c.dequeCap = n; return nil }
}

// WithBatch sets how many completions a worker queues before it publishes
// them to the next management cycle (sharded and async managers); on the
// virtual backend it is the Adaptive model's refill batch.
func WithBatch(n int) Option {
	return func(c *runnerConfig) error { c.batch = n; return nil }
}

// WithVirtualTime switches the Runner to the deterministic discrete-event
// backend, parameterized by cfg. cfg.Procs <= 0 inherits WithWorkers.
// cfg.Mgmt is honored as given unless a manager-shaped option
// (WithManager, WithAdaptiveBatching) was also applied — those take
// precedence, so one option set retargets cleanly between real and
// virtual machines. Everything else about the run —
// batch and buffer sizes, observer, trace, metrics, faults, the preemption
// bound — is set by the same options as on the real machines.
func WithVirtualTime(cfg SimConfig) Option {
	return func(c *runnerConfig) error {
		if c.pool {
			return fmt.Errorf("rundown: WithVirtualTime conflicts with WithPool (virtual tenancy runs through RunAll)")
		}
		c.virtual = true
		c.simCfg = cfg
		return nil
	}
}

// WithPool labels the goroutine machine PoolBackend instead of
// ExecBackend (Runner.Backend, Report.Backend, Snapshot.Backend, the trace
// header). It changes nothing else: every goroutine Run and RunAll runs on
// the multi-tenant worker pool.
func WithPool() Option {
	return func(c *runnerConfig) error {
		if c.virtual {
			return fmt.Errorf("rundown: WithPool conflicts with WithVirtualTime (virtual tenancy runs through RunAll)")
		}
		c.pool = true
		return nil
	}
}

// WithObserver streams live progress Snapshots from every run to fn.
func WithObserver(fn Observer) Option {
	return func(c *runnerConfig) error { c.observer = fn; return nil }
}

// WithObservePeriod sets the wall-clock sampling period for real
// backends (<= 0 selects 10ms).
func WithObservePeriod(d time.Duration) Option {
	return func(c *runnerConfig) error { c.observePeriod = d; return nil }
}

// WithTrace turns on the flight recorder: every run captures a
// structured trace of its scheduling decisions — dispatches,
// completions, backfills, parks, injected faults, retries, aborts and, in
// virtual time, batch retunes — and attaches the merged trace to
// Report.Trace. When w is non-nil the trace is also written to
// it in the versioned binary format (readable back with ReadTraceFile)
// after the run completes; pass nil to capture in memory only. Virtual
// traces are deterministic (identical runs produce identical traces);
// real-backend traces carry wall-clock nanosecond timestamps.
func WithTrace(w io.Writer) Option {
	return func(c *runnerConfig) error {
		c.traceOn = true
		c.traceW = w
		return nil
	}
}

// WithMetrics turns on unified telemetry: every run records the
// standard rundown metric set — dispatch/completion/steal counters,
// compute/management/idle time splits, dispatch-wait and queue-wait
// latency histograms, job lifecycle gauges — at the same scheduling
// chokepoints the flight recorder instruments, on every backend, and
// attaches the deterministic sorted dump to Report.Metrics. Virtual
// runs record in virtual units from the event loop, so identical runs
// produce bit-identical dumps; real backends record wall-clock
// nanoseconds. Recording is amortized zero-alloc (per-worker sharded
// counters), so metrics-on runs price within noise of metrics-off.
func WithMetrics() Option {
	return func(c *runnerConfig) error {
		c.metricsOn = true
		return nil
	}
}

// WithMetricsRegistry is WithMetrics recording into a caller-owned
// registry instead of a fresh per-run one — the form a long-lived
// service uses to mount reg.Handler() (Prometheus text) or
// reg.Publish (expvar) once and watch successive runs stream through
// the same live endpoint. Counters accumulate across runs on a shared
// registry; Report.Metrics still carries each run's closing dump.
func WithMetricsRegistry(reg *MetricsRegistry) Option {
	return func(c *runnerConfig) error {
		if reg == nil {
			return fmt.Errorf("rundown: WithMetricsRegistry needs a non-nil registry")
		}
		c.metricsOn = true
		c.metricsReg = reg
		return nil
	}
}

// WithFaults arms deterministic fault injection: the campaign's rules
// strike at the same logical chokepoints on every backend — priced in
// virtual time, bounded wall-clock effects on real goroutines — so
// recovery behaviour (retries, deadlines, stall detection) can be
// exercised on demand. Identical specs produce bit-identical virtual
// outcomes; see FaultSpec and FaultScenario.
func WithFaults(spec FaultSpec) Option {
	return func(c *runnerConfig) error {
		c.faults = &spec
		return nil
	}
}

// WithAdmission arms pool admission control: at most maxActive jobs run
// concurrently. A Submit (or RunAll job) above the mark fails with an
// error wrapping ErrPoolSaturated — or, with queue set, waits its turn
// in submit order. Deadlines keep running while a job queues.
func WithAdmission(maxActive int, queue bool) Option {
	return func(c *runnerConfig) error {
		if maxActive < 1 {
			return fmt.Errorf("rundown: WithAdmission needs maxActive >= 1")
		}
		c.maxActive = maxActive
		c.queue = queue
		return nil
	}
}

// WithPreemptBound caps every job's task grain at n granules — the
// largest non-preemptible unit a worker can hold, bounding how long a
// co-tenant emerging from rundown waits behind an in-flight foreign
// grain. PoolReport.MaxBackfillTask (and the virtual MultiResult's
// MaxBackfillTask) measure the enforcement.
func WithPreemptBound(n int) Option {
	return func(c *runnerConfig) error {
		if n < 1 {
			return fmt.Errorf("rundown: WithPreemptBound needs n >= 1")
		}
		c.preemptBound = n
		return nil
	}
}

// WithStallTimeout arms the pool watchdog: a job with tasks in flight
// and no progress for d is failed as wedged (and retried if it has
// retries left). Negative d disables the watchdog even under WithFaults
// (which otherwise arms a default). Only goroutine backends consult it.
func WithStallTimeout(d time.Duration) Option {
	return func(c *runnerConfig) error {
		c.stallTimeout = d
		return nil
	}
}

// WithAdmitFunc installs a caller-defined admission predicate on
// pool-backed runs: Submit consults fn under the pool lock — before the
// WithAdmission high-water check — with the job's config and a
// consistent load view, and a non-nil return rejects the job with an
// error wrapping fn's error. The service daemon's latency classes are
// built on this hook; see AdmitFunc.
func WithAdmitFunc(fn AdmitFunc) Option {
	return func(c *runnerConfig) error {
		if fn == nil {
			return fmt.Errorf("rundown: WithAdmitFunc needs a non-nil predicate")
		}
		c.admit = fn
		return nil
	}
}

// WithLiveFaults pre-arms an extensible fault plan (and the pool stall
// watchdog) on pool-backed runs, so fault rules can be injected into
// the live pool with Pool.InjectFaults — the staging path a service
// daemon uses to scope a campaign to one submitted job. WithFaults
// already arms an extensible plan; this option exists for pools that
// start quiet.
func WithLiveFaults() Option {
	return func(c *runnerConfig) error {
		c.liveFaults = true
		return nil
	}
}

// WithTraceRecorder attaches a caller-owned flight recorder to
// StartPool pools: the pool records its scheduling decisions into rec
// for its whole lifetime, and the caller reads it while the pool runs —
// one job's schedule with PoolJob.Trace, at the cost of that job's
// records only, or everything retained with Take() (both race-safe; a
// live read may miss the newest events). This is the service daemon's
// per-job trace-download path — unlike WithTrace, whose recorder is
// per-run and harvested into Report.Trace automatically. Run/RunAll
// ignore it.
func WithTraceRecorder(rec *TraceRecorder) Option {
	return func(c *runnerConfig) error {
		if rec == nil {
			return fmt.Errorf("rundown: WithTraceRecorder needs a non-nil recorder")
		}
		c.traceRec = rec
		return nil
	}
}

// newRecorder builds a fresh flight recorder for one run (nil when
// tracing is off). A recorder is per-run, never per-Runner: two Runs of
// the same Runner must not interleave their events.
func (c *runnerConfig) newRecorder() *trace.Recorder {
	if !c.traceOn {
		return nil
	}
	var meta trace.Meta
	if c.backend() == ExecBackend {
		meta.Backend = "exec" // the pool and the simulator name themselves
	}
	return trace.NewRecorder(meta, c.workers)
}

// finishTrace merges a finished run's trace into rep and writes the
// binary form when a writer was configured. It returns the write error,
// if any; the run itself already succeeded.
func (c *runnerConfig) finishTrace(rec *trace.Recorder, rep *Report) error {
	if rec == nil || rep == nil {
		return nil
	}
	t := rec.Take()
	rep.Trace = t
	if c.traceW != nil {
		if err := trace.Write(c.traceW, t); err != nil {
			return fmt.Errorf("rundown: writing trace: %w", err)
		}
	}
	return nil
}

// newMetrics builds one run's metric set (nil when metrics are off). A
// metric set is per-run like a recorder unless the caller supplied a
// registry; unit labels a fresh registry's time base ("ns" on real
// backends, "virtual" on the simulator — a caller-owned registry keeps
// the unit it was built with).
func (c *runnerConfig) newMetrics(unit string) *telemetry.Set {
	if !c.metricsOn {
		return nil
	}
	reg := c.metricsReg
	if reg == nil {
		reg = telemetry.NewRegistry(c.workers, unit)
	}
	return telemetry.NewSet(reg)
}

// finishMetrics attaches a finished run's metric dump to rep.
func (c *runnerConfig) finishMetrics(met *telemetry.Set, rep *Report) {
	if met == nil || rep == nil {
		return
	}
	rep.Metrics = met.Registry.Dump()
}

// resolve applies defaults after every option has run.
func (c *runnerConfig) resolve() {
	if !c.workersSet {
		c.workers = runtime.GOMAXPROCS(0)
	}
}

// model resolves the virtual backend's management resource model. An
// explicit WithVirtualTime model is honored unless a manager-shaped
// option was applied; then the manager decides, mirroring how the same
// configuration runs on hardware.
func (c *runnerConfig) model() MgmtModel {
	if c.virtual && !c.managerSet && !c.adaptive {
		return c.simCfg.Mgmt
	}
	switch {
	case c.manager == AsyncManager:
		return AsyncMgmt
	case c.adaptive:
		return AdaptiveMgmt
	case c.manager == ShardedManager:
		return ShardedMgmt
	default:
		return StealsWorker
	}
}

// jobOpt returns job's scheduler options with the Runner-level adaptive
// setting folded in (the sim reads adaptivity from the job options).
func (c *runnerConfig) jobOpt(job Job) Options {
	opt := job.Opt
	if c.adaptive {
		opt.AdaptiveBatch = true
		if opt.MgmtTarget <= 0 {
			opt.MgmtTarget = c.mgmtTarget
		}
	}
	return opt
}

// backend names the machine the options select.
func (c *runnerConfig) backend() BackendKind {
	switch {
	case c.virtual:
		return VirtualBackend
	case c.pool:
		return PoolBackend
	default:
		return ExecBackend
	}
}

// poolConfig builds the tenant pool configuration for goroutine runs.
func (c *runnerConfig) poolConfig() tenant.Config {
	cfg := tenant.Config{
		Workers:       c.workers,
		Manager:       c.manager,
		DequeCap:      c.dequeCap,
		Batch:         c.batch,
		Faults:        c.faults,
		DynamicFaults: c.liveFaults,
		MaxActive:     c.maxActive,
		Queue:         c.queue,
		StallTimeout:  c.stallTimeout,
		PreemptBound:  c.preemptBound,
		Admit:         c.admit,
		ObservePeriod: c.observePeriod, // read only with an Observer
	}
	if c.observer != nil {
		fn, backend := c.observer, c.backend()
		cfg.Observer = func(s tenant.Snapshot) {
			fn(Snapshot{
				Backend: backend, Final: s.Final,
				Elapsed: s.Elapsed, Tasks: s.Tasks, Jobs: s.ActiveJobs,
				BackfillTasks: s.BackfillTasks,
				Utilization:   s.Utilization, OverheadShare: s.OverheadShare,
			})
		}
	}
	return cfg
}

// simConfig builds the virtual machine's configuration — the one place the
// options and the SimConfig literal meet: the model and the processor count
// are resolved between them, and everything else comes from the options,
// plus the run's recorder and metric set.
func (c *runnerConfig) simConfig(rec *trace.Recorder, met *telemetry.Set) sim.Config {
	cfg := sim.Config{
		Procs: c.simCfg.Procs, Mgmt: c.model(),
		Batch: c.batch, Faults: c.faults, PreemptBound: c.preemptBound,
		Trace: rec, Metrics: met,
	}
	if cfg.Procs <= 0 && c.workersSet {
		cfg.Procs = c.workers
	}
	if c.dequeCap > 0 {
		// What the goroutine lanes hold together for one job.
		cfg.ReadyCap = c.dequeCap * cfg.Procs
	}
	if c.observer != nil {
		fn := c.observer
		cfg.Observer = func(s sim.Snapshot) {
			fn(Snapshot{
				Backend: VirtualBackend, Final: s.Final,
				VirtualTime: s.VirtualTime, Tasks: s.Tasks, Jobs: s.Jobs,
				Utilization: s.Utilization, OverheadShare: s.OverheadShare,
				Batch: s.Batch,
			})
		}
	}
	return cfg
}
