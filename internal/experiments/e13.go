package experiments

import (
	"fmt"

	"repro/internal/executive"
)

// E13AsyncExecutive is the paper's central resource comparison — where
// does management run during rundown? — taken to real goroutines. Three
// architectures, head-to-head on the same workloads:
//
//   - serial: management steals idle worker moments under one global lock
//     (the paper's steals-worker executive — on the UNIVAC test bed
//     "executive computation was done at the direct expense of worker
//     computation");
//   - sharded: management distributed across the workers (per-worker
//     deques, batched flushes, stealing);
//   - async: management moved to a dedicated background goroutine (the
//     paper's "separate processors for the executive"), each worker
//     taking tasks from its own ready lane and queueing completions in
//     its own completion lane.
//
// The structural claims: on the fine-grain identity chain (management-
// bound, the serial executive's worst case) async must clearly beat
// serial at P >= 4 — the dedicated thread takes the whole management load
// off the workers' critical path; on the coarser CASPER pipeline the gap
// between async and sharded must stay bounded — one management thread
// serves P workers well until the per-task management rate exceeds what
// one thread sustains, which is exactly the trade the sharded design
// makes the other way.
//
// g restricts the managers and adds Runner options.
func E13AsyncExecutive(scale Scale, g Goroutines) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Async executive: dedicated management goroutine vs steals-worker vs sharded (wall-clock)",
		Paper: "the paper's dedicated-executive-processor alternative (\"some real parallel " +
			"machines may provide separate processors for the executive\") realized on hardware " +
			"and compared against the steals-worker baseline it discusses",
		Columns: []string{
			"workload", "manager", "workers", "tasks", "wall", "utilization", "compute:mgmt",
		},
	}
	kinds := []executive.ManagerKind{
		executive.SerialManager, executive.ShardedManager, executive.AsyncManager,
	}
	// The first two E10 workload families: the fine-grain identity chain
	// (management-bound) and the CASPER mini-CFD pipeline (coarser grain,
	// every mapping kind).
	for _, wl := range e10Workloads()[:2] {
		for _, workers := range []int{4, 8} {
			for _, kind := range kinds {
				if !g.runs(kind) {
					continue
				}
				prog, opt, err := wl.build(scale)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", wl.name, err)
				}
				rep, err := g.runOnGoroutines(prog, opt, workers, kind)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/%d: %w", wl.name, kind, workers, err)
				}
				t.AddRow(wl.name, kind.String(), workers, rep.Tasks,
					rep.Wall.Round(10_000).String(),
					fmt.Sprintf("%.3f", rep.Utilization),
					fmt.Sprintf("%.1f", rep.MgmtRatio))
			}
		}
	}
	t.Note("async runs one management goroutine beside the workers (the dedicated executive " +
		"processor — not counted in the utilization denominator, exactly as the sim's " +
		"Dedicated model does not count the executive's processor)")
	t.Note("wall-clock measurements vary with the host; the structural signal is async " +
		"clearing serial at fine grain and staying within a bounded gap of sharded at coarse grain")
	g.note(t)
	return t, nil
}
