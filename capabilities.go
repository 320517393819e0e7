package rundown

import (
	"repro/internal/executive"
	"repro/internal/sim"
)

// Caps reports what a (manager, model) pairing supports, so callers can
// discover a backend's limits statically instead of tripping over
// ErrUnsupportedMgmt at run time. The answers are derived from the same
// predicates the backends enforce (sim.SupportsMulti gates RunMulti,
// executive.SupportsPool gates NewPoolDriver), so capability and
// behaviour cannot drift apart — a conformance test cross-checks them.
type Caps struct {
	// Manager and Model echo the pairing the capabilities describe.
	Manager ExecManager
	Model   MgmtModel
	// VirtualSingle: the virtual backend can price a single-program run
	// under Model (Simulate / VirtualBackend Run).
	VirtualSingle bool
	// VirtualMulti: the virtual backend can price a multi-program run
	// under Model (SimulateMulti / VirtualBackend RunAll). False means
	// those calls return an error wrapping ErrUnsupportedMgmt.
	VirtualMulti bool
	// RealMulti: Manager implements the PoolDriver surface, so the
	// tenant pool (NewPool / real-backend RunAll) can drive it.
	RealMulti bool
	// Adaptive: the adaptive batching controller applies — Manager is
	// the sharded manager (real) or Model is the Adaptive model
	// (virtual). Virtual multi-program runs price the controller
	// pool-wide; REAL pool-backed runs ignore it (see
	// WithAdaptiveBatching).
	Adaptive bool
	// AsyncMgmt: management runs beside the workers rather than on them —
	// the async manager's dedicated goroutine, or the Async model's
	// ready-buffered dedicated processor.
	AsyncMgmt bool
	// DedicatedProc: the virtual model gives the executive its own
	// processor outside the utilization denominator (Dedicated, Async).
	DedicatedProc bool
	// FaultInjection: WithFaults strikes this pairing — priced virtual
	// faults under Model, bounded wall-clock faults on Manager's real
	// backends. True for every pairing: the fault plan consults the same
	// rules at the same logical chokepoints everywhere.
	FaultInjection bool
	// Deadlines: per-job deadlines abort only the deadlined job with an
	// error wrapping context.DeadlineExceeded. Pool-backed runs and
	// virtual runs — Run and RunAll, which share one engine — enforce
	// them natively; single-job goroutine runs through the run context.
	// False only when neither side of the pairing has a multi-job engine.
	Deadlines bool
	// Retries: failed attempts restart on a fresh scheduler (Job.Retry /
	// WithRetry). Needs a multi-job engine on at least one side: the
	// tenant pool, or the virtual engine (whose Run is a one-job RunAll
	// and retries the same way). Single-job goroutine runs never retry.
	Retries bool
	// Admission: WithAdmission's high-water mark and queueing apply —
	// a real-pool feature, available whenever Manager can drive the pool.
	Admission bool
	// AdaptiveInPool: the adaptive batching controller applies inside a
	// REAL tenant pool. Always false today for every pairing: the pool
	// deliberately omits AdaptiveBatch when it builds per-job drivers,
	// because pool-level parking absorbs the idle-worker signal the
	// controller shrinks on (see tenant.Pool's Submit). Virtual
	// multi-program runs DO price the controller pool-wide — that is the
	// Adaptive bit. A traced pool run pins the behaviour: zero KRetune
	// events regardless of WithAdaptiveBatching.
	AdaptiveInPool bool
}

// Capabilities reports what the (manager, model) pairing supports:
// manager describes the real-machine side, model the virtual-time side.
// Use Runner.Capabilities for a configured Runner's own pairing.
func Capabilities(manager ExecManager, model MgmtModel) Caps {
	return Caps{
		Manager:        manager,
		Model:          model,
		VirtualSingle:  true,
		VirtualMulti:   sim.SupportsMulti(model),
		RealMulti:      executive.SupportsPool(manager),
		Adaptive:       manager == ShardedManager || model == AdaptiveMgmt,
		AsyncMgmt:      manager == AsyncManager || model == AsyncMgmt,
		DedicatedProc:  model == Dedicated || model == AsyncMgmt,
		FaultInjection: true,
		Deadlines:      true,
		Retries:        executive.SupportsPool(manager) || sim.SupportsMulti(model),
		Admission:      executive.SupportsPool(manager),
		// Structurally false: tenant.Pool.Submit never forwards
		// AdaptiveBatch to a job's driver config.
		AdaptiveInPool: false,
	}
}
