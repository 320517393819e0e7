package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/workload"
)

// E3MappingSweep measures how much rundown idle time overlap recovers for
// each enablement-mapping kind, with variable task times (the paper:
// computations "could not even be ascribed with definite execution times").
//
// The indirect kinds appear twice: with a *structured* information
// selection map (window gathers/scatters, as in real stencil and reduction
// codes — released successor granules coalesce into contiguous
// descriptions) and with a fully *random* map (the released granules are
// fragmented, so every one becomes its own description and the serial
// executive pays per-granule management). The contrast quantifies how much
// of the indirect-mapping overhead is the mapping itself versus the
// fragmentation it induces — the economy the paper attributes to
// descriptions as "large, contiguous collections of granules".
func E3MappingSweep(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Rundown recovery by mapping kind (3-phase chain, variable granule cost)",
		Paper: "overlapping keeps processors busy during rundown wherever the mapping permits; " +
			"indirect forms cost executive time; null permits nothing",
		Columns: []string{
			"mapping", "makespan(barrier)", "makespan(overlap)", "gain%",
			"idle(barrier)", "idle(overlap)", "mgmt(overlap)",
		},
	}
	granules, procs, phases := 4096, 64, 3
	if scale == Quick {
		granules, procs = 1024, 32
	}
	grain := granules / (4 * procs)
	// Granule costs sit two orders of magnitude above unit management
	// operations, matching the paper's observed computation-to-management
	// ratio regime (~200).
	cost := workload.UniformCost(100, 900, 1986)
	n := granules

	build := func(name string) (*core.Program, error) {
		spec := func() *enable.Spec {
			switch name {
			case "null":
				return nil
			case "universal":
				return enable.NewUniversal()
			case "identity":
				return enable.NewIdentity()
			case "forward-window":
				// Structured scatter: granule p enables successor p
				// rounded to pairs — releases coalesce.
				return enable.NewForward(func(p granule.ID) []granule.ID {
					return []granule.ID{p}
				})
			case "forward-random":
				return enable.NewForwardIMAP(workload.RandomIMap(n, n, 7))
			case "reverse-window":
				// Structured gather: r needs {r, r+1} — the paper's
				// composite map over a window.
				return enable.NewReverse(func(r granule.ID) []granule.ID {
					if int(r)+1 < n {
						return []granule.ID{r, r + 1}
					}
					return []granule.ID{r}
				})
			case "reverse-random":
				return enable.NewReverseIMAP(workload.RandomIMap(2*n, n, 7), 2)
			case "seam":
				return enable.NewSeam(func(r granule.ID) []granule.ID {
					reqs := []granule.ID{r}
					if r > 0 {
						reqs = append(reqs, r-1)
					}
					if int(r) < n-1 {
						reqs = append(reqs, r+1)
					}
					return reqs
				})
			}
			return nil
		}
		out := make([]*core.Phase, phases)
		for i := range out {
			out[i] = &core.Phase{Name: fmt.Sprintf("p%d", i), Granules: n, Cost: cost}
			if i < phases-1 {
				out[i].Enable = spec()
			}
		}
		return core.NewProgram(out...)
	}

	names := []string{
		"null", "universal", "identity",
		"forward-window", "forward-random",
		"reverse-window", "reverse-random", "seam",
	}
	for _, name := range names {
		var barrier, overlap *rundown.SimResult
		for _, ov := range []bool{false, true} {
			prog, err := build(name)
			if err != nil {
				return nil, err
			}
			res, err := simulate(prog, core.Options{
				Grain: grain, Overlap: ov, Elevate: true,
				Costs: core.DefaultCosts(),
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
		t.AddRow(name, barrier.Makespan, overlap.Makespan,
			fmt.Sprintf("%.1f", gain), barrier.IdleUnits, overlap.IdleUnits, overlap.MgmtUnits)
	}
	t.Note("%d granules x %d phases, %d processors (one stolen by the executive), grain %d, "+
		"uniform cost 100..900", granules, phases, procs, grain)
	t.Note("window vs random rows separate the cost of the mapping kind from the cost of the " +
		"release fragmentation a random information selection map induces")
	return t, nil
}
