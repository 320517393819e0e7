package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// E5MgmtRatio measures the computation-to-management ratio on the
// CASPER-profile workload across task grains. The paper observed the ratio
// "running at something in the neighborhood of 200" on the UNIVAC testbed;
// the ratio is grain-dependent, so the sweep reports which grains land in
// that neighbourhood under the reference cost calibration.
func E5MgmtRatio(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Computation-to-management ratio vs task grain (CASPER profile)",
		Paper: "ratio of computation to management ~200 in PAX/CASPER operation",
		Columns: []string{
			"grain", "tasks", "compute", "mgmt", "ratio", "utilization",
		},
	}
	gpl, perGranule := 4, core.Cost(300)
	procs := 16
	if scale == Quick {
		gpl = 2
	}
	for _, grain := range []int{1, 2, 4, 8, 16, 32, 64} {
		prog, err := workload.CasperProgram(workload.CasperConfig{
			GranulesPerLine: gpl,
			Cost:            workload.FixedCost(perGranule),
			SerialCost:      50,
			Seed:            11,
		})
		if err != nil {
			return nil, err
		}
		res, err := simulate(prog, core.Options{
			Grain: grain, Overlap: true, Elevate: true, Costs: core.DefaultCosts(),
		}, rundown.SimConfig{Procs: procs, Mgmt: rundown.StealsWorker})
		if err != nil {
			return nil, err
		}
		t.AddRow(grain, res.Sched.Dispatches, res.ComputeUnits, res.MgmtUnits,
			fmt.Sprintf("%.0f", res.MgmtRatio), fmt.Sprintf("%.3f", res.Utilization))
	}
	t.Note("CASPER 22-phase profile, %d granules/line, %d units/granule, %d processors",
		gpl, perGranule, procs)
	t.Note("the ratio climbs toward the per-granule-cost ceiling as grain grows and reaches the " +
		"paper's ~200 neighbourhood at coarse grains; utilization peaks at fine-to-mid grains — " +
		"the tension PAX's demand-driven splitting was designed around")
	return t, nil
}
