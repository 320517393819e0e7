package executive

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enum"
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

// Ask says what a worker entering the executive wants back.
type Ask uint8

const (
	// AskNone: nothing — the entry only reports a completion (a worker
	// leaving the job, or crashing).
	AskNone Ask = iota
	// AskTry: a task if one is dispatchable now. The manager absorbs
	// deferred management before declaring the job dry; ok=false means
	// nothing for this worker right now — rundown, done, or aborted — and
	// the worker loop decides where to look next, or parks.
	AskTry
)

// A Manager owns the state machine on behalf of the worker goroutines: it
// decides how scheduler interactions are serialized and where completions
// accumulate. It never parks a worker: waiting for work, idle accounting,
// stall detection and wakeups belong to the worker loop (tenant.Pool),
// which is manager-agnostic and drives this one contract.
//
// The contract: one Start, then each worker enters the executive once per
// task with Enter — report the task it finished, take the next. Abort may
// be called from any goroutine at any time.
//
// Clock discipline: every task-path call takes at, the caller's latest
// clock reading, and returns now, the manager's own latest — at itself
// when the call read nothing. The clock is read where a worker's time
// changes category, not at every task boundary: a dispatched task opens a
// compute stretch for worker w at the stamp returned with it, and the
// stretch stays open across the tasks w reports with the zero Stamp ("not
// read since this stretch began") until the manager is about to do
// management on w's behalf — then it reads the clock itself (at.OrNow()),
// closes the stretch there and charges management from the same reading.
// AskNone and a dry ask close the stretch too. A caller that did read the
// clock after the work returned (something consumes per-task stamps: a
// trace, a metric, a fault plan, a watchdog) passes that reading and the
// stretch is the one task. The manager never re-reads a boundary the
// caller already stamped, and a manager entered without contention charges
// from at, so a caller hands on a reading only if nothing that can block —
// another lock, a channel, a sleep it does not want charged as management
// — happened since it was taken, and reads afresh otherwise. See
// DESIGN.md, "Clock discipline".
//
// Totals: the manager, not the worker loop, totals the compute time and
// the count of the tasks whose completions it applies, under the lock that
// serializes the state machine, so the totals are exact at the instant
// Outcome reports the run done and Tasks equals the state machine's
// completion count by construction. A completion dropped after the run
// failed is not counted.
type Manager interface {
	// Start activates the program on the state machine.
	Start()
	// Enter is the one executive entry a worker makes per task. done is
	// the task worker w just finished executing — the zero Task (state
	// machines issue IDs from 1) when it has none to report — and ask says
	// whether it wants a task back. The serial manager does both halves in
	// one critical section, the way a PAX processor entered the executive;
	// managers whose task path holds no lock compose their completion and
	// dispatch paths. A completion arriving after the run failed is dropped
	// without touching the state machine.
	//
	// ok reports that next is a task to run. applied reports that this
	// call applied completions to the state machine — done itself, or a
	// batch the dispatch path flushed on the way to its refill — so
	// successor work may have been released; false means done only joined
	// a local batch or a queue. The pool wakes parked workers on applied:
	// no manager wakes anyone.
	//
	// at is w's reading taken after done's work returned, or the zero Stamp
	// when w has not read the clock since the stretch done ran in began.
	// now, returned with a task, is the stamp its compute is charged from;
	// zero means the open stretch simply continues (nothing was read). With
	// no task it is the manager's latest reading, the stretch closed.
	Enter(w int, done core.Task, at clock.Stamp, ask Ask) (next core.Task, now clock.Stamp, ok, applied bool)
	// Flush submits worker w's accumulated completions immediately (a
	// doorbell ring for the async manager, nothing for the serial one).
	// The pool calls it when a worker switches jobs so completions cannot
	// linger unflushed. It reports whether anything was applied.
	Flush(w int, at clock.Stamp) (now clock.Stamp, applied bool)
	// Abort terminates the run with err. A run whose state machine already
	// completed refuses the abort.
	Abort(err error)
	// Outcome reports whether the state machine has completed and the run
	// error, both under one entry of the lock that serializes them.
	// (false, nil) means the run is still going; once either value is set
	// it never changes (Abort refuses a completed run, and a failed run
	// drops every later completion).
	Outcome() (done bool, err error)
	// InFlight reports dispatched-but-incomplete tasks. When every pool
	// worker is parked (all deques drained, all batches flushed),
	// InFlight()==0 on an unfinished job identifies a true stall.
	InFlight() int
	// Totals returns the summed compute time and count of the tasks whose
	// completions were applied, and the summed management time, in one
	// entry of the lock that serializes them with Outcome. Compute and
	// tasks do not move once the run has failed.
	Totals() (compute, mgmt time.Duration, tasks int64)
	// Join blocks until the manager's own management goroutine, if it has
	// one (async), has exited. Call it only after the run is over (workers
	// left, or Abort was called) and before reading final state-machine
	// statistics.
	Join()
	// SetNotify registers a callback for scheduling progress made off the
	// worker goroutines (async: completions apply and refills land on the
	// management goroutine). The pool parks workers above the manager and
	// would never observe that progress through its own calls. It is
	// invoked, outside all manager locks, after every management cycle
	// that applied completions, buffered new tasks, or finished the run;
	// managers that only make progress inside Enter never call it. Must be
	// called before Start.
	SetNotify(func())
}

// NewManager builds the configured Manager over sm.
func NewManager(sm StateMachine, cfg Config) (Manager, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("executive: need at least 1 worker")
	}
	switch cfg.Manager {
	case SerialManager:
		return newSerial(sm, cfg.Workers), nil
	case ShardedManager:
		return newSharded(sm, cfg), nil
	case AsyncManager:
		return newAsync(sm, cfg), nil
	default:
		return nil, fmt.Errorf("executive: unknown manager kind %v", cfg.Manager)
	}
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
	// is above its low-water mark, and a worker that finds the buffer
	// empty and the executive idle runs a management cycle itself, which
	// covers a GOMAXPROCS that leaves the management goroutine no core.
	AsyncManager
)

// managers is ManagerKind's name table: reports on the service daemon's
// wire and the -manager flags carry a manager by name, never by number.
var managers = enum.New("manager", SerialManager, [][]string{{"serial"}, {"sharded"}, {"async"}})

// ManagerKinds lists every built-in manager kind, in declaration order.
// The conformance suite ranges over it so a new manager inherits the
// stall/panic/race/Done-invariant checks the moment it is registered.
func ManagerKinds() []ManagerKind { return managers.Values() }

func (k ManagerKind) String() string { return managers.String(k) }

// ManagerNames lists the accepted ParseManager names in declaration
// order, for CLI help strings.
func ManagerNames() []string { return managers.Names() }

// ParseManager parses a -manager flag value.
func ParseManager(s string) (ManagerKind, error) { return managers.Parse(s) }

// MarshalJSON encodes the kind as its string name.
func (k ManagerKind) MarshalJSON() ([]byte, error) { return managers.Marshal(k) }

// UnmarshalJSON decodes a kind from its string name (or the numeric enum
// value).
func (k *ManagerKind) UnmarshalJSON(b []byte) error { return managers.Unmarshal(b, k) }

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
