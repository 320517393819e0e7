package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/workload"
)

// E6SplitPolicies compares the executive control strategies the paper
// narrates for identity-mapped overlap:
//
//   - demand-driven splitting with inline successor-description splitting
//     (the delay the paper worries "may represent an unacceptable
//     situation");
//   - demand-driven splitting with deferred successor-splitting management
//     tasks ("quickly queued for later attention when the executive would
//     again be idle");
//   - pre-splitting before idle workers present themselves ("allow the
//     executive to work ahead in otherwise idle time");
//   - the conflict-release priority ablation (released successor work ahead
//     of vs behind remaining current-phase work).
func E6SplitPolicies(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Executive control strategies (identity chain, conflict-queue mechanism)",
		Paper: "presplitting vs successor-splitting tasks are proposed qualitatively; the paper " +
			"gives no measurements",
		Columns: []string{
			"strategy", "makespan", "utilization", "idle", "mgmt", "splits", "deferred",
		},
	}
	granules, procs, phases := 8192, 32, 4
	if scale == Quick {
		granules, procs = 2048, 16
	}
	grain := granules / (4 * procs)

	type cfg struct {
		name    string
		split   core.SplitPolicy
		succ    core.SuccSplitMode
		ident   core.IdentityMode
		ahead   bool
		overlap bool
	}
	cases := []cfg{
		{name: "barrier", overlap: false},
		{name: "demand+inline", split: core.SplitDemand, succ: core.SuccSplitInline, ident: core.IdentityConflictQueue, overlap: true},
		{name: "demand+deferred", split: core.SplitDemand, succ: core.SuccSplitDeferred, ident: core.IdentityConflictQueue, overlap: true},
		{name: "presplit", split: core.SplitPre, succ: core.SuccSplitInline, ident: core.IdentityConflictQueue, overlap: true},
		{name: "table-counters", split: core.SplitDemand, ident: core.IdentityTable, overlap: true},
		{name: "demand+inline+released-ahead", split: core.SplitDemand, succ: core.SuccSplitInline, ident: core.IdentityConflictQueue, ahead: true, overlap: true},
	}
	for _, c := range cases {
		prog, err := workload.Chain(enable.Identity, phases, granules, workload.UniformCost(100, 500, 6), 6)
		if err != nil {
			return nil, err
		}
		res, err := simulate(prog, core.Options{
			Grain: grain, Overlap: c.overlap, Split: c.split, SuccSplit: c.succ,
			IdentityVia: c.ident, ReleasedAhead: c.ahead, Costs: core.DefaultCosts(),
		}, rundown.SimConfig{Procs: procs, Mgmt: rundown.StealsWorker})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, res.Makespan, fmt.Sprintf("%.4f", res.Utilization),
			res.IdleUnits, res.MgmtUnits, res.Sched.Splits, res.Sched.DeferredItems)
	}
	t.Note("%d granules x %d identity phases, %d processors, grain %d, uniform cost 100..500",
		granules, phases, procs, grain)
	return t, nil
}
