package sim

// Deterministic trace replay: re-execute a recorded flight-recorder
// trace as a PINNED schedule against a real core.Scheduler. The trace —
// from any backend: a virtual run, a goroutine executive, a tenant pool
// — names which processor ran which task in which order; the replay
// re-derives every task from the scheduler itself (so a trace cannot
// smuggle in granules the program never released), binds each dispatch
// to its recorded processor, rebuilds the virtual timeline, and checks
// conservation:
//
//   - every recorded dispatch must name a task the scheduler actually
//     made ready at that point in the replayed order (same phase, same
//     granule range) — a trace that dispatches work before its enablers
//     completed diverges here;
//   - every phase must complete exactly its granule count, and the
//     scheduler must reach Done with nothing left ready, pending, or in
//     flight;
//   - per-processor busy time is rebuilt from the scheduler's own task
//     costs, so two traces of the same program can be compared on a
//     common virtual time base regardless of which backend recorded
//     them.
//
// Task identity matching works because task boundaries are
// grain-deterministic: the scheduler carves grain-sized slices off the
// front of each released range, so the same program under the same
// options yields the same (phase, lo, hi) task set in every run — the
// property the golden tests pin.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ReplayResult reports a successful replay: the rebuilt virtual
// timeline plus the conserved quantities.
type ReplayResult struct {
	// Procs is the processor count the timeline was rebuilt on.
	Procs int
	// Makespan is the replayed virtual completion time (the last
	// processor's busy end).
	Makespan int64
	// Dispatches and Granules count the replayed tasks and their summed
	// granules (Granules equals the program's total on success).
	Dispatches int64
	Granules   int64
	// Busy is each processor's summed virtual task cost.
	Busy []int64
	// PhaseGranules is the per-phase completed granule count (equals
	// each phase's declared granule count on success).
	PhaseGranules []int64
	// Utilization is sum(Busy) / (Procs * Makespan).
	Utilization float64
}

// replayKey identifies a task by what the trace records about it.
type replayKey struct {
	phase  int32
	lo, hi uint32
}

func eventKey(e *trace.Event) replayKey {
	return replayKey{phase: e.Phase, lo: e.Lo, hi: e.Hi}
}

func taskKey(t core.Task) replayKey {
	return replayKey{phase: int32(t.Phase), lo: uint32(t.Run.Lo), hi: uint32(t.Run.Hi)}
}

// pendingTask is a scheduler-released task awaiting its recorded
// dispatch, stamped with the virtual time it became ready.
type pendingTask struct {
	task    core.Task
	readyAt int64
}

// inflightTask is a dispatched task awaiting its recorded completion.
type inflightTask struct {
	task core.Task
	end  int64 // virtual finish time on its processor
}

// Replay re-executes tr against a fresh scheduler for prog under opt,
// pinning every dispatch to the trace's processor and order. It fails
// with a divergence error when the trace dispatches a task the
// scheduler never released (wrong range, wrong order, or violated
// enablement) and with a conservation error when the replayed run does
// not complete the program exactly.
//
// opt must match the options of the recorded run where they shape task
// identity (Grain, split policies, mappings); management costs may
// differ — replay prices only computation.
func Replay(prog *core.Program, opt core.Options, tr *trace.Trace) (*ReplayResult, error) {
	if tr == nil || len(tr.Events) == 0 {
		return nil, fmt.Errorf("sim: replay: empty trace")
	}
	if len(tr.Meta.Jobs) > 1 {
		return nil, fmt.Errorf("sim: replay: multi-job trace (%d jobs); replay one program at a time", len(tr.Meta.Jobs))
	}
	procs := tr.Procs()
	if procs < 1 {
		return nil, fmt.Errorf("sim: replay: trace names no processors")
	}
	if opt.Workers <= 0 {
		opt.Workers = procs
	}
	sched, err := core.New(prog, opt)
	if err != nil {
		return nil, err
	}
	sched.Start()

	r := &replayer{
		sched:    sched,
		pending:  make(map[replayKey]pendingTask),
		inflight: make(map[replayKey]inflightTask),
		procEnd:  make([]int64, procs),
		busy:     make([]int64, procs),
		phases:   make([]int64, len(prog.Phases)),
	}
	r.drain(0)

	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Kind {
		case trace.KDispatch:
			if err := r.dispatch(i, ev); err != nil {
				return nil, err
			}
		case trace.KComplete:
			if err := r.complete(i, ev); err != nil {
				return nil, err
			}
		case trace.KAbort:
			return nil, fmt.Errorf("sim: replay: trace records an aborted run (event %d)", i)
		}
	}

	// Conservation: the program must be exactly complete — nothing still
	// in flight, nothing released but never dispatched, every phase at
	// its declared granule count, scheduler done.
	if n := len(r.inflight); n != 0 {
		return nil, fmt.Errorf("sim: replay: %d dispatched tasks never completed", n)
	}
	if n := len(r.pending); n != 0 {
		return nil, fmt.Errorf("sim: replay: %d released tasks never dispatched", n)
	}
	if !sched.Done() {
		return nil, fmt.Errorf("sim: replay: trace ends with the program incomplete (phase %d)", sched.CurrentPhase())
	}
	for pi, ph := range prog.Phases {
		if r.phases[pi] != int64(ph.Granules) {
			return nil, fmt.Errorf("sim: replay: phase %d completed %d granules, program declares %d",
				pi, r.phases[pi], ph.Granules)
		}
	}

	res := &ReplayResult{
		Procs:         procs,
		Dispatches:    r.dispatches,
		Granules:      r.granules,
		Busy:          r.busy,
		PhaseGranules: r.phases,
	}
	var busyTotal int64
	for p := 0; p < procs; p++ {
		busyTotal += r.busy[p]
		if r.procEnd[p] > res.Makespan {
			res.Makespan = r.procEnd[p]
		}
	}
	res.Utilization, _ = telemetry.Shares(busyTotal, 0, procs, res.Makespan)
	return res, nil
}

// replayer is the replay state: the scheduler being driven, the
// released-but-undispatched pool, the dispatched-but-incomplete set,
// and the rebuilt per-processor timeline.
type replayer struct {
	sched    *core.Scheduler
	buf      []core.Task
	pending  map[replayKey]pendingTask
	inflight map[replayKey]inflightTask
	procEnd  []int64
	busy     []int64
	phases   []int64

	dispatches int64
	granules   int64
}

// drain pulls every currently-ready task out of the scheduler into the
// pending pool, stamped ready at readyAt, absorbing deferred management
// until the scheduler is dry.
func (r *replayer) drain(readyAt int64) {
	for {
		ts, _ := r.sched.NextTasks(r.buf[:0], 1<<20)
		r.buf = ts[:0]
		for _, t := range ts {
			r.pending[taskKey(t)] = pendingTask{task: t, readyAt: readyAt}
		}
		if len(ts) > 0 {
			continue
		}
		if r.sched.HasDeferred() {
			r.sched.DeferredMgmt()
			continue
		}
		return
	}
}

// dispatch binds recorded dispatch ev to a scheduler-released task and
// places it on its processor's timeline.
func (r *replayer) dispatch(i int, ev *trace.Event) error {
	if int(ev.Proc) < 0 || int(ev.Proc) >= len(r.procEnd) {
		return fmt.Errorf("sim: replay: event %d dispatches on processor %d of %d", i, ev.Proc, len(r.procEnd))
	}
	k := eventKey(ev)
	pt, ok := r.pending[k]
	if !ok {
		// The range may sit behind deferred management the original run
		// absorbed before this dispatch.
		r.drain(r.procEnd[ev.Proc])
		if pt, ok = r.pending[k]; !ok {
			return fmt.Errorf("sim: replay: divergence at event %d: dispatch of phase %d [%d,%d) which the scheduler has not released (enablement violated or task boundaries differ)",
				i, ev.Phase, ev.Lo, ev.Hi)
		}
	}
	delete(r.pending, k)
	start := r.procEnd[ev.Proc]
	if pt.readyAt > start {
		start = pt.readyAt
	}
	cost := int64(r.sched.TaskCost(pt.task))
	end := start + cost
	r.procEnd[ev.Proc] = end
	r.busy[ev.Proc] += cost
	r.inflight[k] = inflightTask{task: pt.task, end: end}
	r.dispatches++
	return nil
}

// complete applies recorded completion ev to the scheduler and drains
// the work it released, stamped ready at the completing task's finish.
func (r *replayer) complete(i int, ev *trace.Event) error {
	k := eventKey(ev)
	ft, ok := r.inflight[k]
	if !ok {
		return fmt.Errorf("sim: replay: divergence at event %d: completion of phase %d [%d,%d) which was never dispatched",
			i, ev.Phase, ev.Lo, ev.Hi)
	}
	delete(r.inflight, k)
	r.sched.Complete(ft.task)
	if ev.Phase >= 0 && int(ev.Phase) < len(r.phases) {
		r.phases[ev.Phase] += int64(ev.Hi - ev.Lo)
	}
	r.granules += int64(ev.Hi - ev.Lo)
	r.drain(ft.end)
	return nil
}
