package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/workload"
)

// E4TaskRatio tests the paper's outset condition: "there should be at the
// outset of the current-phase work at least two tasks for each processor so
// that at least one task execution time will be available to process the
// completion of the first task assigned to the processor and to schedule
// the enabled next-phase task. ... it assumes that one such completion,
// enablement, and scheduling cycle for each of the processors in the system
// can be completed in a single task execution time."
//
// The sweep holds the task duration fixed and varies the number of tasks
// available per processor at phase outset (by scaling the phase size).
// The task duration is chosen so one completion+enable+schedule cycle for
// every processor just fits inside one task execution — the paper's
// boundary assumption — so the utilization knee lands at 2 tasks/processor.
func E4TaskRatio(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Tasks-per-processor outset condition (identity overlap, fixed task size)",
		Paper: "at least two tasks per processor at phase outset; completion processing for all " +
			"processors must fit in one task execution time",
		Columns: []string{"tasks/proc", "granules/phase", "makespan", "utilization", "idle/phase-cost"},
	}
	procs, grain, phases := 32, 16, 4
	if scale == Quick {
		procs = 16
	}
	// One management round for all processors: roughly
	// procs * (Complete + Merge + Dispatch + Split + release) ~ procs*7.
	// Task duration grain*cost must be >= that: cost = procs*7/grain.
	perGranule := core.Cost(procs * 7 / grain)
	if perGranule < 1 {
		perGranule = 1
	}
	for _, ratio := range []int{1, 2, 3, 4, 8} {
		granules := procs * grain * ratio
		prog, err := workload.Chain(enable.Identity, phases, granules, workload.FixedCost(perGranule), 3)
		if err != nil {
			return nil, err
		}
		res, err := simulate(prog, core.Options{
			Grain: grain, Overlap: true, Costs: core.DefaultCosts(),
		}, rundown.SimConfig{Procs: procs, Mgmt: rundown.StealsWorker})
		if err != nil {
			return nil, err
		}
		idlePerWork := float64(res.IdleUnits) / float64(res.ComputeUnits)
		t.AddRow(ratio, granules, res.Makespan,
			fmt.Sprintf("%.4f", res.Utilization), fmt.Sprintf("%.4f", idlePerWork))
	}
	t.Note("%d processors, grain %d, %d units/granule (one full completion cycle for all "+
		"processors fits in one task execution), %d identity-mapped phases",
		procs, grain, perGranule, phases)
	t.Note("below 2 tasks/processor the executive cannot hide completion processing behind a " +
		"second task; utilization recovers at and beyond the paper's threshold")
	return t, nil
}
