package executive

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/trace"
)

// StateMachine is the slice of the core scheduler state machine a Manager
// drives. The split is the load-bearing boundary of this package: the
// state machine (core.Scheduler) holds all scheduling policy and no
// synchronization; a Manager holds all synchronization and no scheduling
// policy. *core.Scheduler implements it; tests substitute stubs to
// exercise manager failure paths the real state machine cannot reach.
type StateMachine interface {
	// Start activates the program; returns the management cost.
	Start() core.Cost
	// NextTask pops one ready task; ok is false when nothing is ready.
	NextTask() (core.Task, core.Cost, bool)
	// NextTasks pops up to max ready tasks in one call (batch refill).
	NextTasks(dst []core.Task, max int) ([]core.Task, core.Cost)
	// Complete performs completion processing for one dispatched task.
	Complete(t core.Task) core.Cost
	// CompleteBatch performs completion processing for ts in order.
	CompleteBatch(ts []core.Task) core.Cost
	// DeferredMgmt performs one unit of deferred management work.
	DeferredMgmt() (core.Cost, bool)
	// HasDeferred reports whether deferred management work is queued.
	HasDeferred() bool
	// Done reports whether every phase has completed.
	Done() bool
	// InFlight reports dispatched-but-incomplete tasks.
	InFlight() int
	// ReadyTasks reports how many NextTask calls would succeed right now.
	ReadyTasks() int
	// CurrentPhase reports the oldest incomplete phase index.
	CurrentPhase() int
	// Stats returns the management statistics so far.
	Stats() core.Stats
}

var _ StateMachine = (*core.Scheduler)(nil)

// A Manager owns the state machine on behalf of the worker pool: it
// decides how scheduler interactions are serialized, where completions
// accumulate, and when parked workers wake. The worker loop in Run is
// manager-agnostic.
//
// The contract: one Start, then each worker takes its first task with
// Next and loops execute -> CompleteNext until ok=false (program done, run
// aborted, or stall detected). Abort may be called from any worker at any
// time.
//
// Clock discipline: every task-path call takes at, the caller's latest
// clock reading, and returns now, the manager's own latest — at itself
// when the call read nothing. The manager charges its management and idle
// intervals between the two and never re-reads a boundary the caller
// already stamped; the caller chains from now (a dispatched task's
// compute interval starts there). A manager entered without contention
// charges from at, so a caller hands on a reading only if nothing that
// can block — another lock, a channel, a sleep — happened since it was
// taken, and reads afresh otherwise. See DESIGN.md, "Clock discipline".
type Manager interface {
	// Start activates the program on the state machine.
	Start()
	// Next blocks until a task is available for worker w and returns it.
	// ok=false means the worker must exit: the program is done, the run
	// was aborted, or the manager detected a stall.
	Next(w int, at clock.Stamp) (t core.Task, now clock.Stamp, ok bool)
	// CompleteNext is the one executive entry a worker makes per task: it
	// reports that worker w finished executing done and blocks, like
	// Next, for the worker's next task. The serial manager does both in
	// one critical section — how a PAX processor entered the executive;
	// managers whose task path holds no lock compose Complete and Next.
	CompleteNext(w int, done core.Task, at clock.Stamp) (t core.Task, now clock.Stamp, ok bool)
	// Complete reports that worker w finished executing t without asking
	// for more work: a pool worker, which may switch jobs between tasks,
	// and a worker about to retire. The manager may submit it to the
	// state machine immediately (serial) or accumulate it for batched
	// submission (sharded). It reports whether completions were applied
	// to the state machine by this call — false means t only joined a
	// local batch, so no successor work can have been released (the pool
	// uses this to skip waking parked workers).
	Complete(w int, t core.Task, at clock.Stamp) (now clock.Stamp, applied bool)
	// Abort terminates the run with err; parked workers are released.
	Abort(err error)
	// Err returns the run error, if any. Call after the workers exit.
	Err() error
	// Mgmt and Idle return the summed management-lock and parked time.
	Mgmt() time.Duration
	Idle() time.Duration
}

// PoolDriver is the manager surface the multi-tenant pool
// (internal/tenant) drives. It keeps the Manager contract but adds the
// non-blocking probes a pool worker needs to serve several jobs: instead
// of parking inside one job's manager, a worker that gets TryNext
// ok=false moves on to another job, and the pool owns parking and stall
// detection across all of them. Every built-in manager implements it.
type PoolDriver interface {
	Manager
	// TryNext returns a task without parking. Like Next it absorbs
	// deferred management (and, sharded, flushes this worker's completion
	// batch) before declaring the job dry, so ok=false means the job has
	// nothing for this worker to do right now — the job is in rundown,
	// done, or aborted.
	TryNext(w int, at clock.Stamp) (t core.Task, now clock.Stamp, ok bool)
	// Flush submits worker w's accumulated completions immediately
	// (no-op for managers that do not batch). The pool calls it when a
	// worker switches jobs so completions cannot linger unflushed. It
	// reports whether anything was applied.
	Flush(w int, at clock.Stamp) (now clock.Stamp, applied bool)
	// Outcome reports whether the job's state machine has completed and
	// the run error, both under one entry of the lock that serializes
	// them. (false, nil) means the run is still going; once either value
	// is set it never changes (Abort refuses a completed run, and a
	// failed run drops every later completion).
	Outcome() (done bool, err error)
	// InFlight reports dispatched-but-incomplete tasks. When every pool
	// worker is parked (all deques drained, all batches flushed),
	// InFlight()==0 on an unfinished job identifies a true stall.
	InFlight() int
}

// Joiner is implemented by managers that run management on a goroutine of
// their own (AsyncManager). Join blocks until that goroutine has exited;
// call it only after the run is over (workers exited, or Abort was
// called) and before reading final state-machine statistics — until Join
// returns, the management goroutine may still be touching the state
// machine.
type Joiner interface {
	Join()
}

// Notifier is implemented by managers whose scheduling progress happens
// off the worker goroutines (AsyncManager: completions apply and refills
// land on the management goroutine). A pool that parks workers above the
// manager would never observe that progress through its own calls, so it
// registers a callback here — invoked, outside all manager locks, after
// every management cycle that applied completions, buffered new tasks, or
// finished the run. SetNotify must be called before Start.
type Notifier interface {
	SetNotify(func())
}

// NewPoolDriver builds the configured Manager over sm and returns its
// pool-driving surface. It is the constructor internal/tenant uses; Run
// keeps its own private path.
func NewPoolDriver(sm StateMachine, cfg Config) (PoolDriver, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("executive: need at least 1 worker")
	}
	return newManager(sm, cfg)
}

// ManagerKind selects the Manager implementation an executive run uses.
type ManagerKind uint8

const (
	// SerialManager serializes every state-machine interaction under one
	// global lock — the PAX serial executive, preserved as the paper
	// baseline. Management is a single contended resource exactly as on
	// the UNIVAC 1100 test bed.
	SerialManager ManagerKind = iota
	// ShardedManager gives each worker a bounded local task deque and a
	// local completion batch. Workers refill their deque (and flush
	// their batch) in one global-lock acquisition, and steal from each
	// other's deques when their own drains during rundown, so global
	// serialization is paid once per batch rather than once per task.
	ShardedManager
	// AsyncManager runs all management on one dedicated background
	// goroutine — the paper's separate executive processor (the sim's
	// Dedicated model) realized on hardware. Workers pull tasks from a
	// bounded ready-buffer the management goroutine keeps refilled and
	// push completions into a lock-free MPSC queue; deferred management
	// overlaps computation on the management thread whenever the buffer
	// is above its low-water mark, and workers fall back to inline
	// draining when GOMAXPROCS leaves the management goroutine no core.
	AsyncManager
)

// ManagerKinds lists every built-in manager kind, in declaration order.
// The conformance suite ranges over it so a new manager inherits the
// stall/panic/race/Done-invariant checks the moment it is registered.
func ManagerKinds() []ManagerKind {
	return []ManagerKind{SerialManager, ShardedManager, AsyncManager}
}

func (k ManagerKind) String() string {
	switch k {
	case SerialManager:
		return "serial"
	case ShardedManager:
		return "sharded"
	case AsyncManager:
		return "async"
	default:
		return fmt.Sprintf("ManagerKind(%d)", uint8(k))
	}
}

// ManagerNames lists the accepted ParseManager names in declaration
// order. CLI help strings and parse errors are built from it so the
// enumeration cannot drift from the parser.
func ManagerNames() []string {
	names := make([]string, 0, len(ManagerKinds()))
	for _, k := range ManagerKinds() {
		names = append(names, k.String())
	}
	return names
}

// ParseManager parses a -manager flag value. Matching is
// case-insensitive and tolerates surrounding whitespace; the error
// enumerates the valid names.
func ParseManager(s string) (ManagerKind, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, k := range ManagerKinds() {
		if name == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("executive: unknown manager %q (valid managers: %s)",
		s, strings.Join(ManagerNames(), "|"))
}

// Every built-in manager implements the PoolDriver surface the
// multi-tenant pool drives.
var (
	_ PoolDriver = (*serial)(nil)
	_ PoolDriver = (*sharded)(nil)
	_ PoolDriver = (*async)(nil)
)

// recordAbort flight-records the failure point of a run. Every manager
// calls it exactly where its error transitions nil -> non-nil, so a
// trace carries at most one KAbort and RunContext's failure path can
// rely on it being there.
func recordAbort(rec *trace.Recorder) {
	if rec != nil {
		rec.Emit(trace.KAbort, rec.Now(), -1, 0, -1, 0, 0, 0)
	}
}

// applyCompletion and applyBatch submit completions to the state machine
// on behalf of a manager holding the lock that serializes it. A panic in
// completion processing comes back as the error that fails the run — the
// state machine may be inconsistent afterwards and must not be touched
// again.
func applyCompletion(sm StateMachine, t core.Task) (err error) {
	defer completionPanic(&err)
	sm.Complete(t)
	return nil
}

func applyBatch(sm StateMachine, ts []core.Task) (err error) {
	defer completionPanic(&err)
	sm.CompleteBatch(ts)
	return nil
}

func completionPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("executive: completion processing panicked: %v", r)
	}
}

// newManager builds the configured Manager over sm.
func newManager(sm StateMachine, cfg Config) (PoolDriver, error) {
	switch cfg.Manager {
	case SerialManager:
		return newSerial(sm, cfg), nil
	case ShardedManager:
		return newSharded(sm, cfg), nil
	case AsyncManager:
		return newAsync(sm, cfg), nil
	default:
		return nil, fmt.Errorf("executive: unknown manager kind %v", cfg.Manager)
	}
}
