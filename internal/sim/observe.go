package sim

// This file is the virtual-time observability surface: a simulation run
// configured with Config.Observer emits periodic telemetry.Snapshots (the
// one observation type the pool emits too) as its virtual
// frontier advances, so a caller can watch utilization and overhead build
// up *inside* a deterministic run instead of only reading the final
// Result. The emission points are deterministic — snapshots fire when the
// frontier crosses fixed virtual-time marks, never from a wall-clock
// ticker — so an observed run produces the same snapshot sequence every
// time, and observation cannot perturb the schedule.

import "repro/internal/telemetry"

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
	fn     func(telemetry.Snapshot)
	stride int64
	next   int64
}

func newObserver(fn func(telemetry.Snapshot), totalCost int64, workers int) *observer {
	if fn == nil {
		return nil
	}
	every := observeStride(totalCost, workers)
	return &observer{fn: fn, stride: every, next: every}
}

// final emits the closing snapshot.
func (o *observer) final(s telemetry.Snapshot) {
	if o == nil {
		return
	}
	s.Final = true
	o.fn(s)
}
