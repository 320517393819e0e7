package sim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
)

// This file declares the management models — the paper's question of
// where executive computation runs — and is the only place that reads
// which one a run was configured with: newMstate builds the model's value
// once (kinds) and the event engine asks it everything else through the
// model interface.

// MgmtModel selects where executive computation runs.
type MgmtModel uint8

const (
	// StealsWorker runs the executive on one of the P processors ("in the
	// PAX/CASPER UNIVAC 1100 test bed, executive computation was done at
	// the direct expense of worker computation"): only P-1 processors
	// compute granules, and every dispatch and completion is one request
	// on that processor's serial lane.
	StealsWorker MgmtModel = iota
	// Dedicated gives the executive its own processor beside the P workers
	// ("some real parallel machines may provide separate executive
	// computing resources"): per-task requests on one serial lane, all P
	// processors computing.
	Dedicated
	// Sharded distributes management across the P workers: each processor
	// pays its own dispatch and completion costs on its own lane,
	// concurrently with the others'; only phase activation and deferred
	// idle-time work stay serialized. The optimistic bound — entering the
	// executive costs nothing beyond the state-machine work itself.
	Sharded
	// Adaptive is the batched-executive model, the virtual-time price of a
	// deque-based sharded manager: per-worker task buffers and completion
	// batches, each refill or flush one serialized visit charging
	// MgmtCosts.Acquire plus the state-machine cost. Config.Batch fixes the
	// batch size, or Options.AdaptiveBatch retunes it online (tuner.go).
	Adaptive
	// Async is Dedicated plus the async executive's ready-buffer protocol,
	// the virtual-time price of executive.AsyncManager: the executive
	// processor keeps a bounded ready buffer per job topped up, workers pop
	// it for free and queue completions back without waiting, and deferred
	// management overlaps computation above the buffer's low-water mark.
	Async
)

// kinds is the constructor table, one row per MgmtModel: the model's name
// as CLI flags and the wire spell it, how many of the P processors its
// executive takes away from computing, and what builds its value for a
// machine whose jobs and workers are already in place.
var kinds = [...]struct {
	name     string
	reserved int
	build    func(s *mstate, cfg Config, totalCost int64) model
}{
	StealsWorker: {"steals-worker", 1, newPerTask(false)},
	Dedicated:    {"dedicated", 0, newPerTask(false)},
	Sharded:      {"sharded", 0, newPerTask(true)},
	Adaptive:     {"adaptive", 0, newAdaptive},
	Async:        {"async", 0, newAsync},
}

// ErrUnsupportedMgmt reports a MgmtModel value that names no management
// model: Run and RunMulti price every model ModelNames lists, so an
// unknown value is refused rather than mispriced silently. Errors wrapping
// it name the rejected value; test with errors.Is.
var ErrUnsupportedMgmt = errors.New("sim: unsupported management model")

func (m MgmtModel) String() string {
	if int(m) < len(kinds) {
		return kinds[m].name
	}
	return fmt.Sprintf("MgmtModel(%d)", uint8(m))
}

// ModelNames lists the accepted ParseModel spellings, one per model, in
// declaration order. CLI help strings and parse errors are built from it
// so the enumeration cannot drift from the parser.
func ModelNames() []string {
	names := make([]string, len(kinds))
	for i := range kinds {
		names[i] = kinds[i].name
	}
	return names
}

// ParseModel parses a management-model name as written in CLI flags.
// Matching is case-insensitive and tolerates surrounding whitespace;
// "steals" is accepted as shorthand for "steals-worker". The error
// enumerates the valid names.
func ParseModel(s string) (MgmtModel, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "steals" {
		return StealsWorker, nil
	}
	for i := range kinds {
		if kinds[i].name == name {
			return MgmtModel(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown management model %q (valid models: %s)",
		s, strings.Join(ModelNames(), "|"))
}

// computing returns how many of procs processors compute granules under
// model m.
func (m MgmtModel) computing(procs int) (int, error) {
	if int(m) >= len(kinds) {
		return 0, fmt.Errorf("%w: unknown management model %v", ErrUnsupportedMgmt, m)
	}
	k := kinds[m]
	if procs-k.reserved < 1 {
		return 0, fmt.Errorf("sim: the %s model needs at least %d processors", k.name, k.reserved+1)
	}
	return procs - k.reserved, nil
}

// model is one management model as the event engine sees it. The engine
// (multi.go) keeps time, the event queue, parking, the cross-job dispatch
// policy and the fault, trace and metric chokepoints; a model is its own
// state plus the answers below. Every method runs on the engine's one
// goroutine, and may charge the serial executive (mstate.serve), wake
// parked workers and dispatch through the engine.
type model interface {
	// ask serves worker w's live ask at time at: whatever the worker holds
	// locally, then the engine's candidate walk (mstate.walk), which calls
	// probe for every open candidate and dry when none had work.
	ask(w int, at int64)
	// probe asks job j for a task on behalf of worker w at time at. With
	// ok it returns the task, how many granules the pull draws from j's
	// backfill credit when w is not homed on j (a batched pull draws the
	// whole batch), and when the task starts; without, when the walk moves
	// on to the next candidate.
	probe(w int, j *mjob, at int64) (task core.Task, drawn int, fin int64, ok bool)
	// dry returns when worker w parks after a walk that found nothing and
	// ended at time at.
	dry(w int, at int64) int64
	// complete takes the completion of worker w's running task, of the live
	// attempt of job j, surfacing at time at, and schedules w's next ask.
	complete(w int, j *mjob, at int64)
	// claimable is how many tasks the model holds that any worker's walk
	// could claim: availability wake counts beyond the schedulers' ready
	// tasks.
	claimable() int
	// backlog reports whether completions wait in the model for a worker
	// event that, with the queue empty, will not come; with drain set it
	// applies them.
	backlog(drain bool) bool
	// parking is told, before the parked-worker count changes at time at.
	parking(at int64)
	// holds reports whether worker w holds tasks only it can run — a crash
	// of w must wait — and release applies the completions w holds before
	// it retires at time at, returning when that is done.
	holds(w int) bool
	release(w int, at int64) int64
	// drop discards everything the model holds of job ji, whose attempt died
	// at time at; held counts what it holds of ji, tasks and completions.
	drop(ji int, at int64)
	held(ji int) int
	// batch reports the refill batch size and how often a controller changed
	// it (zeros for a model that does not batch).
	batch() (size, changes int)
}

// holdsNothing answers for a model that keeps no work between events; the
// models embed it and override what they do keep.
type holdsNothing struct{}

func (holdsNothing) dry(_ int, at int64) int64     { return at }
func (holdsNothing) claimable() int                { return 0 }
func (holdsNothing) backlog(bool) bool             { return false }
func (holdsNothing) parking(int64)                 {}
func (holdsNothing) holds(int) bool                { return false }
func (holdsNothing) release(_ int, at int64) int64 { return at }
func (holdsNothing) drop(int, int64)               {}
func (holdsNothing) held(int) int                  { return 0 }
func (holdsNothing) batch() (int, int)             { return 0, 0 }
