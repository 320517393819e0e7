package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// E8EndToEnd runs the full CASPER-profile program (22 phases per cycle with
// the paper's published mapping mix) and compares strict barrier execution
// against phase overlap across machine sizes. The paper's implied claim:
// with 68% of phases simply overlappable (and 82% overlappable with
// effort), overlap materially raises utilization and shortens the job.
func E8EndToEnd(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "End-to-end CASPER profile: barrier vs overlap",
		Paper: "simple and plausible steps could provide overlapping in 68 percent of the " +
			"computational phases; more with extended effort",
		Columns: []string{
			"procs", "makespan(barrier)", "makespan(overlap)", "gain%",
			"util(barrier)", "util(overlap)", "idle(barrier)", "idle(overlap)",
		},
	}
	gpl, cycles := 6, 2
	procSweep := []int{8, 32, 128}
	if scale == Quick {
		gpl, cycles = 2, 1
		procSweep = []int{8, 32}
	}
	for _, procs := range procSweep {
		var barrier, overlap *rundown.SimResult
		for _, ov := range []bool{false, true} {
			prog, err := workload.CasperProgram(workload.CasperConfig{
				GranulesPerLine: gpl,
				Cycles:          cycles,
				Cost:            workload.ConditionalSkip(300, 0.2, 23),
				SerialCost:      100,
				Seed:            23,
			})
			if err != nil {
				return nil, err
			}
			res, err := simulate(prog, core.Options{
				Grain: 8, Overlap: ov, Elevate: true, Costs: core.DefaultCosts(),
			}, rundown.SimConfig{Procs: procs, Mgmt: rundown.StealsWorker})
			if err != nil {
				return nil, err
			}
			if ov {
				overlap = res
			} else {
				barrier = res
			}
		}
		gain := 100 * (float64(barrier.Makespan) - float64(overlap.Makespan)) / float64(barrier.Makespan)
		t.AddRow(procs, barrier.Makespan, overlap.Makespan, fmt.Sprintf("%.1f", gain),
			fmt.Sprintf("%.3f", barrier.Utilization), fmt.Sprintf("%.3f", overlap.Utilization),
			barrier.IdleUnits, overlap.IdleUnits)
	}
	t.Note("CASPER profile: %d cycles x 22 phases, %d granules/line, conditional-skip cost 300 "+
		"(20%% of granules skip), serial cost 100 at null boundaries", cycles, gpl)
	t.Note("gain grows with processor count: rundown idle scales with P while work does not")
	return t, nil
}
