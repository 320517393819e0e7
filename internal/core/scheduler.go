package core

import (
	"fmt"
	"math/bits"

	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/queue"
)

// The scheduler is organized as a pure state machine split across files by
// concern; no file knows about time, goroutines or locks:
//
//	scheduler.go — structure, construction, observers, invariant checks
//	window.go    — the phase window: activation, overlap preparation,
//	               enablement-table publication, priority elevation
//	dispatch.go  — the waiting computation queue drain: NextTask/NextTasks
//	               and demand splitting
//	complete.go  — completion processing: Complete/CompleteBatch, counter
//	               decrements, conflict-queue releases
//	deferred.go  — deferred management work for idle executive moments
//
// Drivers (internal/sim's virtual-time machine and internal/executive's
// Manager implementations) own all concurrency and serialization policy.

// phaseRun is the runtime state of one program phase. The scheduler holds
// its phases' records by value, in one slice, and each carries its phase's
// cost function: pricing a task (TaskCost) reads the record, not the
// program's phase behind it.
type phaseRun struct {
	spec  *Phase
	cost  CostFn // spec.Cost
	idx   granule.PhaseID
	total int
	state PhaseState

	completed  granule.Bitmap // granules whose tasks have completed
	dispatched granule.Bitmap // granules handed out (superset of completed)
	nComplete  int
	nQueued    int // granules currently in the waiting queue

	// Overlap state for the pair (this phase -> next program phase). The
	// three management bitmaps are allocated with the guards, and only
	// those the pair's kind uses: the others are empty, and read as empty.
	emap          *enable.Map    // the pair's compiled relation, shared with every run of the program; nil = null
	tab           *enable.Table  // nil until overlap is prepared
	pendingTab    *enable.Table  // built but unpublished (incremental map build)
	buildLeft     Cost           // map-construction work still to charge
	cqManaged     granule.Bitmap // successor granules handled by conflict-queue attachments (identity via the conflict queue)
	subsetManaged granule.Bitmap // successor granules released as a unit by subsetCounter (indirect, elevating)
	subsetSpan    granule.Range  // covers subsetManaged
	subsetCounter enable.Counter
	subsetPreds   granule.Bitmap // current-phase granules counted by subsetCounter (indirect, elevating)
	nextActivated bool           // successor has been initiated (may dispatch)
}

// Scheduler is the PAX-style phase-overlap scheduler. It is not safe for
// concurrent use: the driver must serialize calls. A serial driver models
// the serial PAX executive; a sharded driver batches its calls under one
// lock (see internal/executive).
type Scheduler struct {
	prog *Program
	opt  Options

	// wait is the waiting computation queue, and its arena holds every
	// description, queued or in flight: a dispatched task's ID is its
	// description's index there, so completion finds it with no lookup.
	// Retired records are recycled, so in steady state the identity-overlap
	// cycle allocates nothing: a completion retires its enabler's record
	// and materializes the released successor in it.
	wait       queue.Wait[desc]
	phases     []phaseRun
	current    int    // index of the oldest incomplete phase; len(phases) when done
	readyTasks int    // queued descriptions counted at grain granularity
	inFlight   int    // dispatched descriptions not yet completed
	grainInv   uint64 // ⌊(2⁶⁴−1)/Grain⌋: taskCount's reciprocal
	deferred   []deferredItem
	started    bool
	stats      Stats

	// Completion scratch, reused across Complete/CompleteBatch calls so
	// steady-state completion processing allocates nothing: a group's
	// conflict-released successor granules, and the successor granules the
	// enablement counters released. Each is filled and drained within one
	// completion, before the phase-window advance, so no nested call ever
	// sees one in use. Allocated in New when the options allow overlap.
	succ, released scratch
}

// scratch is a bitmap over successor granules that the completion path
// fills and drains, with the span it has set since it was last drained:
// draining walks and clears that span, not the phase.
type scratch struct {
	bits  granule.Bitmap
	dirty granule.Range
}

// set adds r.
func (x *scratch) set(r granule.Range) {
	if r.Empty() {
		return
	}
	x.bits.Set(r)
	if x.dirty.Empty() {
		x.dirty = r
		return
	}
	x.dirty.Lo, x.dirty.Hi = min(x.dirty.Lo, r.Lo), max(x.dirty.Hi, r.Hi)
}

// drain calls f on every maximal run set since the last drain, in
// ascending order, and empties the scratch.
func (x *scratch) drain(f func(granule.Range)) {
	if x.dirty.Empty() {
		return
	}
	x.bits.Runs(x.dirty, f)
	x.bits.Clear(x.dirty)
	x.dirty = granule.Range{}
}

// New constructs a scheduler for prog with the given options.
func New(prog *Program, opt Options) (*Scheduler, error) {
	maps, err := prog.compile()
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults(prog)
	s := &Scheduler{
		prog:     prog,
		opt:      opt,
		grainInv: ^uint64(0) / uint64(min(opt.Grain, maxGranules)),
		phases:   make([]phaseRun, len(prog.Phases)),
	}
	widest := 0
	for i, ph := range prog.Phases {
		// The phase's bitmaps, in one allocation: its two guards, and the
		// management sets its pair's kind uses.
		var cq, subset, preds int // granules each covers
		if m := maps[i]; opt.Overlap && m != nil {
			next := prog.Phases[i+1].Granules
			switch k := m.Kind(); {
			case k == enable.Identity && opt.IdentityVia == IdentityConflictQueue:
				cq = next
			case k.Indirect() && opt.Elevate:
				subset, preds = next, ph.Granules
			}
		}
		pool := make(granule.Bitmap, 2*granule.Words(ph.Granules)+granule.Words(cq)+granule.Words(subset)+granule.Words(preds))
		cut := func(n int) granule.Bitmap {
			b := pool[:granule.Words(n):granule.Words(n)]
			pool = pool[len(b):]
			return b
		}
		s.phases[i] = phaseRun{
			spec:          ph,
			cost:          ph.Cost,
			idx:           granule.PhaseID(i),
			total:         ph.Granules,
			emap:          maps[i],
			completed:     cut(ph.Granules),
			dispatched:    cut(ph.Granules),
			cqManaged:     cut(cq),
			subsetManaged: cut(subset),
			subsetPreds:   cut(preds),
		}
		widest = max(widest, ph.Granules)
	}
	if opt.Overlap {
		w := granule.Words(widest)
		pool := make(granule.Bitmap, 2*w)
		s.succ.bits, s.released.bits = pool[:w:w], pool[w:]
	}
	return s, nil
}

// Options returns the effective options after defaulting.
func (s *Scheduler) Options() Options { return s.opt }

// Program returns the scheduled program.
func (s *Scheduler) Program() *Program { return s.prog }

// Stats returns a copy of the management statistics so far.
func (s *Scheduler) Stats() Stats { return s.stats }

// SerialCost reports the serial-action cost accumulated so far — the
// Stats().SerialCost field without copying the whole Stats struct, for
// drivers that probe it around every completion (the multi-program
// simulator's openAt gate).
func (s *Scheduler) SerialCost() Cost { return s.stats.SerialCost }

// Dispatches reports the number of tasks dispatched so far, without
// copying the whole Stats struct.
func (s *Scheduler) Dispatches() int64 { return s.stats.Dispatches }

// Done reports whether every phase has completed.
func (s *Scheduler) Done() bool { return s.started && s.current >= len(s.phases) }

// CurrentPhase returns the index of the oldest incomplete phase, or the
// phase count when the program is done.
func (s *Scheduler) CurrentPhase() int { return s.current }

// Ready reports the number of granules currently in the waiting queue.
func (s *Scheduler) Ready() int {
	n := 0
	for i := range s.phases {
		n += s.phases[i].nQueued
	}
	return n
}

// InFlight reports the number of dispatched-but-incomplete tasks. With a
// sharded driver this includes tasks parked in worker-local deques and
// completions not yet submitted, not only tasks actually executing.
func (s *Scheduler) InFlight() int { return s.inFlight }

// ReadyTasks reports how many NextTask calls would succeed right now:
// queued descriptions counted at grain granularity (a large description
// splits into many tasks). Drivers use it to bound worker wake-ups.
func (s *Scheduler) ReadyTasks() int { return s.readyTasks }

// taskCount is the number of grain-sized tasks a run of n ≥ 1 granules
// splits into, ceil(n/Grain), by a multiply instead of a division: with
// grainInv = ⌊(2⁶⁴−1)/Grain⌋, the high word of grainInv·n is ⌊(n−1)/Grain⌋
// for every n and Grain below 2³² (Robison's round-up reciprocal; a phase
// has at most maxGranules granules, and a larger grain divides as
// maxGranules does).
func (s *Scheduler) taskCount(n int) int {
	q, _ := bits.Mul64(s.grainInv, uint64(n))
	return int(q) + 1
}

// TaskCost returns the virtual execution cost of a task: the sum of its
// granules' costs.
func (s *Scheduler) TaskCost(t Task) Cost {
	cost := s.phases[t.Phase].cost
	if cost == nil {
		return Cost(t.Run.Len())
	}
	var sum Cost
	t.Run.Each(func(g granule.ID) { sum += cost(g) })
	return sum
}

// Check verifies cross-structure invariants; tests call it between driver
// steps. It is O(queue length + granules/64).
func (s *Scheduler) Check() error {
	queued := make(map[granule.PhaseID]int)
	tasks := 0
	s.wait.Each(func(i queue.Index, _ queue.Class) {
		d := s.wait.At(i)
		queued[granule.PhaseID(d.phase)] += d.run.r().Len()
		tasks += s.taskCount(d.run.r().Len())
	})
	if tasks != s.readyTasks {
		return fmt.Errorf("readyTasks=%d but queue holds %d task-equivalents", s.readyTasks, tasks)
	}
	flying := 0
	for i := 1; i < s.wait.Len(); i++ {
		if s.wait.At(queue.Index(i)).inFlight {
			flying++
		}
	}
	if flying != s.inFlight {
		return fmt.Errorf("inFlight=%d but %d descriptions are in flight", s.inFlight, flying)
	}
	for i := range s.phases {
		pr := &s.phases[i]
		if q := queued[pr.idx]; q != pr.nQueued {
			return fmt.Errorf("phase %d: nQueued=%d but queue holds %d", pr.idx, pr.nQueued, q)
		}
		if pr.nComplete > pr.total {
			return fmt.Errorf("phase %d: completed %d of %d", pr.idx, pr.nComplete, pr.total)
		}
		if pr.state == PhaseComplete && pr.nComplete != pr.total {
			return fmt.Errorf("phase %d: complete with %d/%d", pr.idx, pr.nComplete, pr.total)
		}
		done, dispatched := 0, true
		pr.completed.Runs(granule.Span(pr.total), func(r granule.Range) {
			done += r.Len()
			dispatched = dispatched && pr.dispatched.All(r)
		})
		if done != pr.nComplete || !dispatched {
			return fmt.Errorf("phase %d: completed set %d, count %d, all dispatched %v", pr.idx, done, pr.nComplete, dispatched)
		}
	}
	for _, x := range []*scratch{&s.succ, &s.released} {
		if x.bits.Any(granule.Span(64 * len(x.bits))) {
			return fmt.Errorf("a completion scratch bitmap holds granules between calls")
		}
	}
	return nil
}
