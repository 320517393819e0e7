package core

import (
	"fmt"

	"repro/internal/granule"
	"repro/internal/queue"
)

// Task is a contiguous run of granules of one phase handed to a worker.
type Task struct {
	// ID is unique within a scheduler run and identifies the dispatch.
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
// A desc lives in exactly one place at a time: the waiting computation
// queue (node attached) or in flight as a dispatched task.
type desc struct {
	phase granule.PhaseID
	run   granule.Range

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
	// queue. Compared to carrying a linked ring of successor
	// descriptions, this halves the per-description footprint and lets a
	// completion's released successor reuse the enabler's just-retired
	// allocation: the description working set stops growing with the
	// phase.
	succ granule.Range

	// node links the desc into the waiting computation queue. It is
	// embedded by value (not a *Node) so a description is one allocation,
	// not two — at fine grain the extra node allocation per description
	// dominated the dispatch path's allocation profile.
	node queue.Node[*desc]
}

func (d *desc) String() string {
	return fmt.Sprintf("desc{phase=%d run=%v}", d.phase, d.run)
}
