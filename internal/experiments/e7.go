package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/workload"
)

// E7CompositeMapCost sweeps the cost of composite-granule-map generation
// for reverse-indirect overlap, under both executive resource models and
// both construction strategies. The paper: "in the PAX/CASPER UNIVAC 1100
// test bed, executive computation was done at the direct expense of worker
// computation. Thus, extensive composite granule map generation could be
// self defeating. Some real parallel machines may provide separate
// executive computing resources, in which case the generation and use of
// composite granule maps would not be out of the question."
//
// The inline strategy builds the map at phase initiation, blocking the
// serial executive — the self-defeating case the paper warns about. The
// deferred strategy (this reproduction's default) builds the map
// incrementally in executive idle time and cancels it if the predecessor
// phase finishes first, bounding the worst case near barrier performance.
func E7CompositeMapCost(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Composite-map generation cost vs overlap gain (reverse indirect)",
		Paper: "extensive composite granule map generation could be self defeating when executive " +
			"computation comes at direct worker expense; separate executive resources help",
		Columns: []string{
			"mgmt-model", "build", "map-entry-cost", "makespan(barrier)", "makespan(overlap)", "gain%",
		},
	}
	granules, procs, phases := 2048, 32, 3
	if scale == Quick {
		granules, procs = 768, 16
	}
	grain := granules / (4 * procs)

	for _, model := range []rundown.MgmtModel{rundown.StealsWorker, rundown.Dedicated} {
		for _, inline := range []bool{true, false} {
			for _, mapCost := range []core.Cost{0, 1, 16, 64} {
				var barrier, overlap *rundown.SimResult
				for _, ov := range []bool{false, true} {
					prog, err := workload.Chain(enable.ReverseIndirect, phases, granules,
						workload.UniformCost(100, 400, 17), 17)
					if err != nil {
						return nil, err
					}
					costs := core.DefaultCosts()
					costs.MapEntry = mapCost
					res, err := simulate(prog, core.Options{
						Grain: grain, Overlap: ov, Elevate: true, InlineMaps: inline,
						Costs: costs,
					}, rundown.SimConfig{Procs: procs, Mgmt: model})
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
				build := "deferred"
				if inline {
					build = "inline"
				}
				t.AddRow(model.String(), build, int64(mapCost), barrier.Makespan, overlap.Makespan,
					fmt.Sprintf("%.1f", gain))
			}
		}
	}
	t.Note("%d granules x %d reverse-mapped phases, %d processors, grain %d; the reverse map "+
		"fans 2 predecessors per successor granule", granules, phases, procs, grain)
	t.Note("inline construction reproduces the paper's warned-about self-defeat: the serial " +
		"executive stalls every processor while it builds the map")
	t.Note("deferred+cancellable construction (this reproduction's default) bounds the loss near " +
		"zero: an unfinished map is abandoned when the predecessor phase completes")
	return t, nil
}
