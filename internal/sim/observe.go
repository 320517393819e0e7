package sim

// This file is the virtual-time observability surface: a simulation run
// configured with Config.Observer emits periodic Snapshots as its virtual
// frontier advances, so a caller can watch utilization and overhead build
// up *inside* a deterministic run instead of only reading the final
// Result. The emission points are deterministic — snapshots fire when the
// frontier crosses fixed virtual-time marks, never from a wall-clock
// ticker — so an observed run produces the same snapshot sequence every
// time, and observation cannot perturb the schedule.

// Snapshot is one periodic observation of a running simulation. All
// counters are cumulative since t=0. IdleUnits only counts closed park
// intervals (a worker still parked at the snapshot mark contributes
// nothing until it wakes), matching how the run loop accounts idle time.
type Snapshot struct {
	// VirtualTime is the frontier the run had reached when the snapshot
	// fired: the latest completion event or completion-processing finish,
	// the same quantity the makespan reports at the end.
	VirtualTime int64
	// Tasks is the number of tasks dispatched so far.
	Tasks int64
	// ComputeUnits, MgmtUnits and IdleUnits are the cumulative totals so
	// far, in virtual units. ComputeUnits counts completed tasks only —
	// in-flight tasks' remaining work is excluded, so Utilization can
	// never read above 1.
	ComputeUnits int64
	MgmtUnits    int64
	IdleUnits    int64
	// Utilization is ComputeUnits / (Procs * VirtualTime) so far.
	Utilization float64
	// OverheadShare is MgmtUnits / (Procs * VirtualTime) so far — the
	// work-inflation share the executive is consuming.
	OverheadShare float64
	// Batch is the Adaptive model's current refill batch size (zero under
	// the other models) — live evidence of the controller moving.
	Batch int
	// Jobs is the number of unfinished jobs: it counts down to 0 as the
	// jobs of a RunMulti finish, and reads 1 while a Run is live (0 on its
	// Final snapshot).
	Jobs int
	// Final marks the closing snapshot, emitted once at the makespan with
	// the run's finished totals.
	Final bool
}

// observeStride picks the snapshot stride for a run whose total cost
// divided over the workers estimates the makespan: about 16 snapshots per
// run.
func observeStride(totalCost int64, workers int) int64 {
	est := totalCost/int64(workers) + 1
	return max(est/16, 1)
}

// observer is the run loop's snapshot emission state (mstate.observe
// emits the periodic snapshots).
type observer struct {
	fn     func(Snapshot)
	stride int64
	next   int64
}

func newObserver(fn func(Snapshot), totalCost int64, workers int) *observer {
	if fn == nil {
		return nil
	}
	every := observeStride(totalCost, workers)
	return &observer{fn: fn, stride: every, next: every}
}

// final emits the closing snapshot.
func (o *observer) final(s Snapshot) {
	if o == nil {
		return
	}
	s.Final = true
	o.fn(s)
}
