package rundown

import (
	"repro/internal/casper"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/paxlang"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core scheduling types.
type (
	// Phase describes one parallel computational phase: its granule
	// count, per-granule cost and work functions, optional serial action,
	// and the enablement mapping to the following phase.
	Phase = core.Phase
	// Program is an ordered sequence of phases.
	Program = core.Program
	// Options configures the overlap scheduler (grain, overlap on/off,
	// split policies, priority rules, management costs).
	Options = core.Options
	// Scheduler is the PAX-style phase-overlap scheduler state machine.
	Scheduler = core.Scheduler
	// Task is a contiguous granule run dispatched to a worker.
	Task = core.Task
	// Cost is an abstract amount of computation in management units.
	Cost = core.Cost
	// MgmtCosts prices the executive operations.
	MgmtCosts = core.MgmtCosts
	// Stats counts scheduler management operations.
	Stats = core.Stats
	// GranuleID identifies a granule within a phase.
	GranuleID = granule.ID
	// PhaseID identifies a phase within a program.
	PhaseID = granule.PhaseID
	// CostFn gives a granule's virtual execution cost.
	CostFn = core.CostFn
	// WorkFn performs a granule's real computation.
	WorkFn = core.WorkFn
)

// Scheduler policy options.
const (
	// SplitDemand splits descriptions when an idle worker appears.
	SplitDemand = core.SplitDemand
	// SplitPre splits descriptions at phase activation.
	SplitPre = core.SplitPre
	// SuccSplitInline splits queued successor descriptions on the
	// dispatch path.
	SuccSplitInline = core.SuccSplitInline
	// SuccSplitDeferred queues successor splitting for executive idle time.
	SuccSplitDeferred = core.SuccSplitDeferred
	// IdentityConflictQueue implements identity overlap with PAX conflict
	// queues.
	IdentityConflictQueue = core.IdentityConflictQueue
	// IdentityTable implements identity overlap with enablement counters.
	IdentityTable = core.IdentityTable
)

// Enablement mapping types.
type (
	// Mapping declares the enablement relation between adjacent phases.
	Mapping = enable.Spec
	// MappingKind identifies a mapping form (universal, identity, ...).
	MappingKind = enable.Kind
	// Footprint declares a granule's shared-data accesses.
	Footprint = enable.Footprint
	// Effect names one shared array element access.
	Effect = enable.Effect
	// AccessFn returns a granule's footprint.
	AccessFn = enable.AccessFn
)

// Mapping kinds.
const (
	// KindNull permits no overlap.
	KindNull = enable.Null
	// KindUniversal permits total overlap.
	KindUniversal = enable.Universal
	// KindIdentity enables successor granule i when current granule i
	// completes.
	KindIdentity = enable.Identity
	// KindForward enables successor IMAP(p) when current p completes.
	KindForward = enable.ForwardIndirect
	// KindReverse enables successor r when all of Requires(r) complete.
	KindReverse = enable.ReverseIndirect
	// KindSeam is the structured stencil (checkerboard) mapping.
	KindSeam = enable.Seam
)

// Mapping constructors.
var (
	// Null declares that no overlap is possible.
	Null = enable.NewNull
	// Universal declares total phase independence.
	Universal = enable.NewUniversal
	// Identity declares the direct mapping I = I.
	Identity = enable.NewIdentity
	// Forward declares a forward indirect mapping from a function.
	Forward = enable.NewForward
	// ForwardIMAP declares a forward indirect mapping from an IMAP array.
	ForwardIMAP = enable.NewForwardIMAP
	// Reverse declares a reverse indirect mapping from a requirements
	// function.
	Reverse = enable.NewReverse
	// ReverseIMAP declares a reverse indirect mapping from an IMAP array
	// with a fixed fan.
	ReverseIMAP = enable.NewReverseIMAP
	// Seam declares a stencil-neighbour mapping.
	Seam = enable.NewSeam
)

// NewProgram builds and validates a program.
func NewProgram(phases ...*Phase) (*Program, error) { return core.NewProgram(phases...) }

// NewScheduler builds a scheduler for driving manually (most callers
// hand the program to a Runner instead).
func NewScheduler(p *Program, opt Options) (*Scheduler, error) { return core.New(p, opt) }

// DefaultCosts returns the reference management cost calibration.
func DefaultCosts() MgmtCosts { return core.DefaultCosts() }

// FreeCosts returns a zero-cost management model for policy studies.
func FreeCosts() MgmtCosts { return core.FreeCosts() }

// Simulation.

// SimConfig is the virtual machine's size and management model (see
// WithVirtualTime).
type SimConfig struct {
	// Procs is the machine's processor count P (>= 1; >= 2 for
	// StealsWorker, which reserves one processor for the executive). <= 0
	// inherits WithWorkers.
	Procs int
	// Mgmt selects the executive resource model, unless a manager-shaped
	// option does.
	Mgmt MgmtModel
}

type (
	// SimResult aggregates a one-job simulation run (Report.Sim).
	SimResult = sim.Result
	// MultiSimResult aggregates a multi-program simulation, with per-job
	// makespans and cross-job backfill units (Report.SimMulti).
	MultiSimResult = sim.MultiResult
	// SimJobResult is one job's outcome within a virtual run
	// (JobReport.Sim).
	SimJobResult = sim.JobResult
	// PhaseTrace records one phase's schedule within a run.
	PhaseTrace = sim.PhaseTrace
	// MgmtModel selects where executive computation runs.
	MgmtModel = sim.MgmtModel
)

// Executive resource models.
const (
	// StealsWorker runs the executive on one of the P processors (the
	// paper's UNIVAC model).
	StealsWorker = sim.StealsWorker
	// Dedicated gives the executive its own processor.
	Dedicated = sim.Dedicated
	// ShardedMgmt distributes executive computation across the workers:
	// each processor pays its own management costs inline, concurrently —
	// the virtual-time price of a parallel (sharded) manager.
	ShardedMgmt = sim.Sharded
	// AdaptiveMgmt is the batched-executive model — the virtual-time
	// price of the deque-based sharded manager: worker-local task
	// buffers pop for free, every refill or completion flush is one
	// serialized lock visit charging MgmtCosts.Acquire, and the batch
	// size is fixed (WithBatch) or retuned online from the
	// observed overhead and starvation shares (Options.AdaptiveBatch).
	AdaptiveMgmt = sim.Adaptive
	// AsyncMgmt is the Dedicated model extended with the async
	// executive's ready-buffer protocol — the virtual-time price of
	// AsyncManager: a separate executive processor keeps a bounded
	// ready-buffer (WithDequeCap per processor) topped up, workers pop it
	// for free and queue completions back without waiting, and deferred
	// management overlaps computation above the buffer's low-water mark.
	AsyncMgmt = sim.Async
)

// ErrUnsupportedMgmt reports a management model the virtual machine
// cannot price. Every named model (MgmtModelNames) prices Run and RunAll
// alike, so only an unknown MgmtModel value trips it: the run fails with
// an error wrapping this sentinel. Test with errors.Is.
var ErrUnsupportedMgmt = sim.ErrUnsupportedMgmt

// Flight-recorder traces (WithTrace).
type (
	// Trace is a run's merged flight-recorder trace: the run description
	// (TraceMeta) plus every scheduling event in (Time, Seq) order.
	Trace = trace.Trace
	// TraceEvent is one recorded scheduling decision.
	TraceEvent = trace.Event
	// TraceMeta describes the machine that produced a trace.
	TraceMeta = trace.Meta
	// TraceDiff reports the comparison of two traces: first divergence,
	// if any, plus per-phase busy and utilization deltas.
	TraceDiff = trace.DiffResult
	// ReplayResult reports a deterministic trace replay (ReplayTrace):
	// the replayed makespan and the conservation checks.
	ReplayResult = sim.ReplayResult
	// TraceRecorder is a caller-owned flight recorder for long-lived
	// pools (WithTraceRecorder). PoolJob.Trace reads one job's schedule
	// out of it and Take the merged trace of everything it retains, both
	// safe while the pool records and neither ever blocking a worker.
	TraceRecorder = trace.Recorder
)

// ErrTraceRecycled is what PoolJob.Trace returns once the recorder has
// recycled part of the job's records (see NewTraceRecorder).
var ErrTraceRecycled = trace.ErrRecycled

// NewTraceRecorder builds a caller-owned flight recorder sized for
// `workers` worker rings, for WithTraceRecorder + StartPool. It is made
// to stay on for a pool's whole life: each ring retains its latest
// 256 Ki events and recycles older ones, so memory is flat, and a job's
// trace (PoolJob.Trace) stays available until that much newer traffic
// has passed through a worker.
func NewTraceRecorder(workers int) *TraceRecorder {
	return trace.NewBounded(trace.Meta{}, workers, trace.DefaultRetain)
}

// Unified telemetry (WithMetrics).
type (
	// MetricsRegistry is the deterministic metrics registry behind
	// WithMetrics: per-worker sharded counters, gauges, and log-linear
	// latency histograms. Its Handler method serves the Prometheus text
	// format, Publish mirrors it into expvar, and Dump exports the
	// deterministic sorted form attached to Report.Metrics. Pass one to
	// WithMetricsRegistry to keep a live registry across runs.
	MetricsRegistry = telemetry.Registry
	// MetricsDump is a registry's point-in-time export (Report.Metrics):
	// every metric sorted by name, histogram buckets in bound order.
	// Identical virtual runs marshal to identical JSON.
	MetricsDump = telemetry.Dump
	// MetricDump is one metric's exported state within a MetricsDump.
	MetricDump = telemetry.MetricDump
)

// NewMetricsRegistry builds a caller-owned metrics registry for
// WithMetricsRegistry: counters shard across `shards` worker cells
// (use the worker count; minimum 1), and timeUnit labels the dump's
// time base — "ns" for real backends, "virtual" for the simulator
// (empty selects "ns").
func NewMetricsRegistry(shards int, timeUnit string) *MetricsRegistry {
	return telemetry.NewRegistry(shards, timeUnit)
}

// FormatMetrics renders a metrics dump as the human-readable table
// rundownsim -metrics prints: one line per metric, histograms
// summarized as count/sum/min/p50/p99/max.
func FormatMetrics(d *MetricsDump) string { return telemetry.FormatDump(d) }

// ReadTraceFile loads a binary trace written by WithTrace or
// WriteTraceFile, verifying the format version and checksum.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// WriteTraceFile writes t in the versioned binary trace format.
func WriteTraceFile(path string, t *Trace) error { return trace.WriteFile(path, t) }

// DiffTraces aligns two traces event by event and reports the first
// divergence plus per-phase utilization deltas. Two virtual traces
// compare exactly (timestamps included); anything else compares
// structurally (kind, processor, job, phase, granule range), so a
// goroutine run can be checked against a virtual rehearsal of the same
// program.
func DiffTraces(a, b *Trace) *TraceDiff { return trace.Diff(a, b) }

// ReplayTrace re-executes a recorded trace in the virtual machine as a
// pinned schedule: every dispatch is bound to the processor the trace
// recorded, in the trace's order, and the replay verifies conservation —
// granule totals per phase, completion-order validity against a real
// scheduler, full program completion. The trace may come from any
// backend; the replayed timeline is virtual.
func ReplayTrace(prog *Program, opt Options, t *Trace) (*ReplayResult, error) {
	return sim.Replay(prog, opt, t)
}

// Execution on goroutines.
type (
	// ExecReport aggregates a goroutine run's measurements.
	ExecReport = executive.Report
	// ExecManager selects the executive's management layer.
	ExecManager = executive.ManagerKind
)

// Executive managers.
const (
	// SerialManager serializes every scheduler interaction under one
	// global lock — the paper's serial executive, kept as the baseline.
	SerialManager = executive.SerialManager
	// ShardedManager gives each worker a bounded ready lane of tasks
	// (WithDequeCap) and a completion lane published every WithBatch
	// completions; a worker whose lane runs dry runs the management cycle
	// itself, refilling its own lane, and steals from the others' lanes
	// in rundown.
	ShardedManager = executive.ShardedManager
	// AsyncManager is the same lane manager with the management cycle on
	// one dedicated background goroutine — the paper's separate executive
	// processor realized on hardware — whenever GOMAXPROCS leaves it a
	// core beside the workers; WithDequeCap sizes each lane, as under
	// ShardedManager. With no spare core the cycle runs inline.
	AsyncManager = executive.AsyncManager
)

// ParseExecManager parses a manager name (one of ExecManagerNames),
// ignoring case and surrounding space; the error enumerates the valid
// names.
func ParseExecManager(s string) (ExecManager, error) { return executive.ParseManager(s) }

// ExecManagerNames lists the accepted ParseExecManager names.
func ExecManagerNames() []string { return executive.ManagerNames() }

// ParseMappingKind resolves an enablement-mapping name (a MappingKind's
// String form, or a short spelling PAX sources use), ignoring case and
// surrounding space.
func ParseMappingKind(s string) (MappingKind, error) { return enable.ParseKind(s) }

// ParseMgmtModel parses a simulation management-model name (one of
// MgmtModelNames), ignoring case and surrounding space; the error
// enumerates the valid names.
func ParseMgmtModel(s string) (MgmtModel, error) { return sim.ParseModel(s) }

// MgmtModelNames lists the accepted ParseMgmtModel names.
func MgmtModelNames() []string { return sim.ModelNames() }

// Multi-tenant execution: several programs sharing one goroutine worker
// pool, one job's rundown filled by another job's work.
type (
	// Pool is the shared worker pool (Runner.StartPool). Submit adds
	// jobs; Close waits for them and returns the pool report.
	Pool = tenant.Pool
	// PoolJobConfig names a submitted job and sets its backfill priority
	// and its weight (home-worker share and backfill credit).
	PoolJobConfig = tenant.JobConfig
	// PoolJob is the handle of a submitted job; Wait returns its
	// ExecReport.
	PoolJob      = tenant.Job
	PoolJobState = tenant.State // what PoolJob.State reports
	// PoolReport aggregates a pool's lifetime: utilization, idle time,
	// and the cross-job backfill that filled rundowns.
	PoolReport = tenant.Report
	// PoolSnapshot is one observation of a live pool (Pool.Sample).
	PoolSnapshot = tenant.Snapshot
	// AdmitFunc is a caller-defined admission predicate (WithAdmitFunc):
	// consulted by Submit under the pool lock, a non-nil return rejects
	// the job. The error is wrapped with the job name, so sentinel and
	// errors.As targets survive to the submitter.
	AdmitFunc = tenant.AdmitFunc
	// AdmissionView is the consistent pool-load snapshot an AdmitFunc
	// receives: active/queued job counts and the measured backfill
	// interference bounds.
	AdmissionView = tenant.AdmissionView
)

// Deterministic fault injection (WithFaults).
type (
	// FaultSpec is a compiled-on-use fault plan description: a seed (for
	// reporting) plus the rules to fire. The same spec produces the same
	// faults on every backend — priced deterministically in virtual time,
	// bounded wall-clock effects on real goroutines.
	FaultSpec = fault.Spec
	// FaultRule matches one injection site (kind, job, phase, granule,
	// worker) and carries its parameters (delay, factor, firing count).
	// Match fields use -1 for "any"; zero means index 0.
	FaultRule = fault.Rule
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
)

// Fault kinds.
const (
	// FaultGrainPanic panics the matched granule's work function.
	FaultGrainPanic = fault.GrainPanic
	// FaultGrainError fails the matched granule's task with an injected
	// error.
	FaultGrainError = fault.GrainError
	// FaultGrainStall withholds the matched task's completion for
	// Rule.Delay units.
	FaultGrainStall = fault.GrainStall
	// FaultGrainSlow stretches the matched task's compute by
	// ×Rule.Factor.
	FaultGrainSlow = fault.GrainSlow
	// FaultWorkerCrash retires the matched worker after the task in hand.
	FaultWorkerCrash = fault.WorkerCrash
	// FaultWorkerWedge withholds the matched worker's next completion —
	// only a stall probe or deadline can fail the wedged job.
	FaultWorkerWedge = fault.WorkerWedge
	// FaultWorkerSlow stretches every task the matched worker runs.
	FaultWorkerSlow = fault.WorkerSlow
	// FaultMgmtDelay delays the matched job's next completion submission
	// to management.
	FaultMgmtDelay = fault.MgmtDelay
	// FaultDropWakeup makes the next wakeup of parked workers vanish;
	// the engines must recover on their own probes.
	FaultDropWakeup = fault.DropWakeup
)

// FaultScenario derives a reproducible n-rule fault campaign from a seed,
// sized to a machine of the given shape (jobs × phases × granules on
// workers). Identical arguments produce identical specs on every host —
// the chaos sweep's generator.
func FaultScenario(seed uint64, n, jobs, phases, granules, workers int) FaultSpec {
	return fault.Scenario(seed, n, jobs, phases, granules, workers)
}

// ParseFaultFlag parses a "seed=N[,rules=K]" fault-campaign flag value
// (the rundownsim -faults syntax) into its seed and rule count.
func ParseFaultFlag(s string) (seed uint64, rules int, err error) {
	return fault.ParseFlag(s)
}

// ParseFaultKind resolves a fault kind's string name ("grain-panic",
// "worker-wedge", …), ignoring case and surrounding space — the same
// names FaultKind marshals to in JSON.
func ParseFaultKind(s string) (FaultKind, error) { return fault.ParseKind(s) }

// Tenancy sentinels. Test with errors.Is; Submit wraps both with the
// offending job's name.
var (
	// ErrPoolClosed reports a Submit after Close or Abort.
	ErrPoolClosed = tenant.ErrPoolClosed
	// ErrPoolSaturated reports a Submit refused by admission control
	// (WithAdmission's high-water mark, queueing off).
	ErrPoolSaturated = tenant.ErrPoolSaturated
)

// Pool job states; PoolJobBackoff (between attempts) prints "running".
const (
	PoolJobQueued  = tenant.Queued
	PoolJobRunning = tenant.Running
	PoolJobBackoff = tenant.Backoff
	PoolJobDone    = tenant.Done
	PoolJobFailed  = tenant.Failed
)

// Verification and inference over access footprints.

// Parallel is the paper's logical predicate PARALLEL(x, y) over declared
// footprints.
func Parallel(x, y Footprint) bool { return enable.Parallel(x, y) }

// Verify checks a declared mapping against the paper's overlap-correctness
// condition (exhaustive; use reduced sizes).
func Verify(m *Mapping, pred AccessFn, nPred int, succ AccessFn, nSucc int) error {
	return enable.Verify(m, pred, nPred, succ, nSucc)
}

// Infer classifies a phase pair's enablement relation from footprints,
// returning the simplest sound mapping.
func Infer(pred AccessFn, nPred int, succ AccessFn, nSucc int) (MappingKind, *Mapping) {
	return enable.Infer(pred, nPred, succ, nSucc)
}

// PAX language.
type (
	// PaxFile is a parsed PAX-language source.
	PaxFile = paxlang.File
	// PaxRegistry binds phase names to Go implementations.
	PaxRegistry = paxlang.Registry
	// PaxResult is an interpreted program plus its dispatch log.
	PaxResult = paxlang.Result
	// PaxOptions bounds interpretation.
	PaxOptions = paxlang.Options
	// PaxPhaseImpl is one phase's Go-side behaviour.
	PaxPhaseImpl = paxlang.PhaseImpl
)

// ParsePax parses PAX-language source.
func ParsePax(src string) (*PaxFile, error) { return paxlang.Parse(src) }

// CheckPax statically checks a parsed source.
func CheckPax(f *PaxFile) error { return paxlang.Check(f) }

// InterpretPax executes the control program into a runnable Program,
// enforcing the paper's successor interlock.
func InterpretPax(f *PaxFile, reg *PaxRegistry, opt PaxOptions) (*PaxResult, error) {
	return paxlang.Interpret(f, reg, opt)
}

// Workloads.
type (
	// CasperPhase is one entry of the PAX/CASPER phase census.
	CasperPhase = workload.CasperPhase
	// CasperConfig materializes the census into a program.
	CasperConfig = workload.CasperConfig
	// Pipeline is the mini-CFD numeric pipeline exercising every mapping.
	Pipeline = casper.Pipeline
	// Grid is the red/black SOR potential grid.
	Grid = casper.Grid
	// IdealCheckerboard is the paper's idealized checkerboard arithmetic.
	IdealCheckerboard = casper.IdealCheckerboard
)

// Census returns the paper's 22-phase PAX/CASPER mapping census.
func Census() []CasperPhase { return workload.Census() }

// CasperProgram materializes the census into a runnable program.
func CasperProgram(cfg CasperConfig) (*Program, error) { return workload.CasperProgram(cfg) }

// Chain builds a linear program with one mapping kind between phases.
func Chain(kind MappingKind, phases, granules int, cost CostFn, seed uint64) (*Program, error) {
	return workload.Chain(kind, phases, granules, cost, seed)
}

// Cost models.
var (
	// UnitCost charges one unit per granule.
	UnitCost = workload.UnitCost
	// FixedCost charges a constant per granule.
	FixedCost = workload.FixedCost
	// UniformCost charges a deterministic pseudo-random cost in [lo, hi].
	UniformCost = workload.UniformCost
	// BimodalCost mixes fast and slow granules.
	BimodalCost = workload.BimodalCost
	// ConditionalSkip models conditionally-skipped computations.
	ConditionalSkip = workload.ConditionalSkip
)

// NewPipeline allocates the mini-CFD pipeline over n points.
func NewPipeline(n int) (*Pipeline, error) { return casper.NewPipeline(n) }

// NewGrid builds an SOR potential grid.
func NewGrid(n int, omega float64, boundary func(i, j int) float64) (*Grid, error) {
	return casper.NewGrid(n, omega, boundary)
}

// HotEdgeBoundary is the canonical SOR test boundary condition.
func HotEdgeBoundary(n int) func(i, j int) float64 { return casper.HotEdgeBoundary(n) }

// NewIdealCheckerboard builds the paper's idealized checkerboard model.
func NewIdealCheckerboard(n int) (*IdealCheckerboard, error) {
	return casper.NewIdealCheckerboard(n)
}
