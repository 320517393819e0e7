package core

import (
	"fmt"

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

// phaseRun is the runtime state of one program phase.
type phaseRun struct {
	spec  *Phase
	idx   granule.PhaseID
	total int
	state PhaseState

	completed  bitmap // granules whose tasks have completed
	dispatched bitmap // granules handed out (superset of completed)
	nComplete  int
	nQueued    int // granules currently in the waiting queue

	// Overlap state for the pair (this phase -> next program phase).
	emap          *enable.Map   // the pair's compiled relation, shared with every run of the program; nil = null
	tab           *enable.Table // nil until overlap is prepared
	pendingTab    *enable.Table // built but unpublished (incremental map build)
	buildLeft     Cost          // map-construction work still to charge
	cqManaged     *granule.Set  // successor granules handled by conflict-queue attachments
	subsetManaged *granule.Set  // successor granules released as a unit by subsetCounter
	subsetCounter enable.Counter
	subsetPreds   *granule.Set // current-phase granules counted by subsetCounter
	nextActivated bool         // successor has been initiated (may dispatch)
}

// Scheduler is the PAX-style phase-overlap scheduler. It is not safe for
// concurrent use: the driver must serialize calls. A serial driver models
// the serial PAX executive; a sharded driver batches its calls under one
// lock (see internal/executive).
type Scheduler struct {
	prog *Program
	opt  Options

	wait       *queue.Wait[*desc]
	phases     []*phaseRun
	current    int // index of the oldest incomplete phase; len(phases) when done
	readyTasks int // queued descriptions counted at grain granularity
	inflight   inflightTable
	deferred   []deferredItem
	nextID     int
	started    bool
	stats      Stats

	// freeDescs recycles retired computation descriptions (and their
	// embedded queue nodes): at fine grain the dispatch path would
	// otherwise allocate one description per task, and the allocator
	// dominates management time. descSlab batch-allocates fresh
	// descriptions 256 at a time, so cold-start growth costs one
	// allocation per 256 descriptions rather than one each. In steady
	// state the identity-overlap cycle is allocation-free: each
	// completion retires its enabler description right after
	// materializing the released successor, so the free list feeds
	// itself.
	freeDescs []*desc
	descSlab  []desc

	// Completion scratch, reused across Complete/CompleteBatch calls so
	// steady-state completion processing allocates nothing: the runs being
	// completed (one for Complete, the coalesced group for completeGroup),
	// the group's conflict-released successor granules, and the successor
	// granules the enablement counters released. Each is filled and
	// consumed within one completion, before the phase-window advance —
	// whose own releases (publishPair, planSubset) build private sets — so
	// no nested call ever sees one in use.
	merged, succ, released granule.Set
}

// getDesc returns a recycled description, or a fresh one when the free
// list is empty.
func (s *Scheduler) getDesc(phase granule.PhaseID, run granule.Range) *desc {
	if n := len(s.freeDescs); n > 0 {
		d := s.freeDescs[n-1]
		s.freeDescs = s.freeDescs[:n-1]
		d.phase, d.run, d.succ = phase, run, granule.Range{}
		return d
	}
	if len(s.descSlab) == 0 {
		s.descSlab = make([]desc, 256)
	}
	d := &s.descSlab[0]
	s.descSlab = s.descSlab[1:]
	d.phase, d.run = phase, run
	d.node.Value = d
	return d
}

// putDesc retires a description to the free list. Descriptions still
// linked into the waiting queue, or with a pending successor, are never
// recycled (defensive: recycling an aliased description would corrupt
// the scheduler).
func (s *Scheduler) putDesc(d *desc) {
	if d == nil || d.node.Attached() || !d.succ.Empty() {
		return
	}
	s.freeDescs = append(s.freeDescs, d)
}

// New constructs a scheduler for prog with the given options.
func New(prog *Program, opt Options) (*Scheduler, error) {
	maps, err := prog.compile()
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults(prog)
	s := &Scheduler{
		prog: prog,
		opt:  opt,
		wait: queue.NewWait[*desc](),
	}
	for i, ph := range prog.Phases {
		w := (ph.Granules + 63) / 64
		guards := make(bitmap, 2*w) // both of the phase's guards, one allocation
		s.phases = append(s.phases, &phaseRun{
			spec:       ph,
			idx:        granule.PhaseID(i),
			total:      ph.Granules,
			emap:       maps[i],
			completed:  guards[:w:w],
			dispatched: guards[w:],
		})
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

// PhaseState reports the lifecycle state of phase i.
func (s *Scheduler) PhaseState(i int) PhaseState { return s.phases[i].state }

// Ready reports the number of granules currently in the waiting queue.
func (s *Scheduler) Ready() int {
	n := 0
	for _, pr := range s.phases {
		n += pr.nQueued
	}
	return n
}

// InFlight reports the number of dispatched-but-incomplete tasks. With a
// sharded driver this includes tasks parked in worker-local deques and
// completions not yet submitted, not only tasks actually executing.
func (s *Scheduler) InFlight() int { return s.inflight.len() }

// ReadyTasks reports how many NextTask calls would succeed right now:
// queued descriptions counted at grain granularity (a large description
// splits into many tasks). Drivers use it to bound worker wake-ups.
func (s *Scheduler) ReadyTasks() int { return s.readyTasks }

// taskCount is the number of grain-sized tasks a run splits into.
func (s *Scheduler) taskCount(n int) int {
	return (n + s.opt.Grain - 1) / s.opt.Grain
}

// TaskCost returns the virtual execution cost of a task: the sum of its
// granules' costs.
func (s *Scheduler) TaskCost(t Task) Cost {
	ph := s.prog.Phases[t.Phase]
	if ph.Cost == nil {
		return Cost(t.Run.Len())
	}
	var sum Cost
	t.Run.Each(func(g granule.ID) { sum += ph.Cost(g) })
	return sum
}

// Check verifies cross-structure invariants; tests call it between driver
// steps. It is O(queue length + granules/64).
func (s *Scheduler) Check() error {
	queued := make(map[granule.PhaseID]int)
	tasks := 0
	s.wait.Each(func(n *queue.Node[*desc], _ queue.Class) {
		queued[n.Value.phase] += n.Value.run.Len()
		tasks += s.taskCount(n.Value.run.Len())
	})
	if tasks != s.readyTasks {
		return fmt.Errorf("readyTasks=%d but queue holds %d task-equivalents", s.readyTasks, tasks)
	}
	for _, pr := range s.phases {
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
		pr.completed.runs(granule.Span(pr.total), func(r granule.Range) {
			done += r.Len()
			dispatched = dispatched && pr.dispatched.all(r)
		})
		if done != pr.nComplete || !dispatched {
			return fmt.Errorf("phase %d: completed set %d, count %d, all dispatched %v", pr.idx, done, pr.nComplete, dispatched)
		}
	}
	return nil
}
