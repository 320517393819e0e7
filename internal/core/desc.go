package core

import (
	"fmt"

	"repro/internal/granule"
	"repro/internal/queue"
)

// Task is a contiguous run of granules of one phase handed to a worker.
type Task struct {
	// ID names the dispatch while it is in flight: it is the address of
	// the task's description in the scheduler's arena, never 0, and is
	// reused for a later dispatch once the task has completed.
	ID int
	// Phase indexes the program phase the granules belong to.
	Phase granule.PhaseID
	// Run is the half-open granule range to execute.
	Run granule.Range
}

func (t Task) String() string {
	return fmt.Sprintf("task#%d phase=%d run=%v", t.ID, t.Phase, t.Run)
}

// desc is a PAX computation description: one (or more) granules of one
// phase, described as a contiguous collection that the executive splits
// apart "as necessary to produce conveniently sized tasks for workers".
//
// Descriptions are records of the waiting queue's arena, named by index:
// with the arena's two ring links a record is 32 bytes and holds no
// pointer, so the head description, its ring neighbours and the class
// heads sit in a few cache lines the garbage collector never scans. A
// description lives in exactly one place at a time: linked into the
// waiting computation queue, or in flight as a dispatched task whose ID is
// its index.
type desc struct {
	phase int32
	run   span

	// succ is the PAX conflict queue of this description, in its only
	// occurring shape: identity-mapped successor work enabled by this
	// description's completion ("upon completion of the described
	// computation, all the queued conflicting computations became
	// unconditionally computable"). The identity mechanism attaches
	// exactly one successor description per enabler, always a contiguous
	// subrange of the enabler's own run (dispatch splits mirror-split it,
	// keeping the invariant), so the queue is represented as the bare
	// range — empty meaning none — and the successor description is
	// materialized only at completion time, when it enters the waiting
	// queue, typically in the record the enabler has just retired.
	succ span

	// inFlight marks a dispatched, not yet completed description: the one
	// state in which a Task's ID may name it.
	inFlight bool
}

// span is a granule range packed into two 32-bit words, which bounds a
// phase to maxGranules.
type span struct{ lo, hi int32 }

// maxGranules is the most granules a phase may have.
const maxGranules = 1<<31 - 1

func spanOf(r granule.Range) span { return span{int32(r.Lo), int32(r.Hi)} }

func (x span) r() granule.Range { return granule.R(granule.ID(x.lo), granule.ID(x.hi)) }

func (x span) empty() bool { return x.hi <= x.lo }

// newDesc makes a detached description of run in phase.
func (s *Scheduler) newDesc(phase granule.PhaseID, run granule.Range) queue.Index {
	i := s.wait.New()
	d := s.wait.At(i)
	d.phase, d.run = int32(phase), spanOf(run)
	return i
}
