package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/casper"
	"repro/internal/core"
)

// E2Checkerboard reproduces the paper's worked rundown example: a
// 1024x1024 potential grid (2**20 points) gives 524,288 computations per
// checkerboard phase; on 1000 processors each receives 524 with 288 left
// over, leaving 712 processors idle while the final wave completes. The
// experiment reports the static arithmetic exactly, then simulates one
// red/black sweep at grain 1 to measure the utilization loss, and finally
// shows the seam-mapping extension recovering the idle time on a reduced
// grid (the full grid's 4M-entry seam table is unnecessary to show the
// shape).
func E2Checkerboard(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Checkerboard rundown (paper example: 1024^2 grid, 1000 processors)",
		Paper: "524 computations per processor, 288 left over, 712 processors idle during the final wave",
		Columns: []string{
			"config", "granules/phase", "procs", "per-proc", "leftover", "idle-procs",
			"makespan", "utilization",
		},
	}

	n, procs := 1024, 1000
	sweeps := 1
	if scale == Quick {
		n, procs = 128, 56 // 8192 granules: 146 each, 16 left over, 40 idle
	}
	ic, err := casper.NewIdealCheckerboard(n)
	if err != nil {
		return nil, err
	}
	each, left, idle := ic.Leftover(procs)

	barrierProg, err := ic.Program(sweeps, false)
	if err != nil {
		return nil, err
	}
	res, err := simulate(barrierProg,
		core.Options{Grain: 1, Costs: core.FreeCosts()},
		rundown.SimConfig{Procs: procs, Mgmt: rundown.Dedicated})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("barrier %dx%d", n, n), ic.PhaseGranules(), procs,
		each, left, idle, res.Makespan, fmt.Sprintf("%.4f", res.Utilization))

	// Expected static makespan: each+1 per phase when there is a
	// leftover wave, each otherwise.
	perPhase := each
	if left > 0 {
		perPhase++
	}
	t.Note("static distribution: %d waves per phase; final wave busies %d of %d processors",
		perPhase, left, procs)

	// Seam-mapping recovery on a reduced grid.
	nSeam, pSeam := 128, 56
	ics, err := casper.NewIdealCheckerboard(nSeam)
	if err != nil {
		return nil, err
	}
	for _, seam := range []bool{false, true} {
		prog, err := ics.Program(2, seam)
		if err != nil {
			return nil, err
		}
		r, err := simulate(prog,
			core.Options{Grain: 1, Overlap: seam, Costs: core.FreeCosts()},
			rundown.SimConfig{Procs: pSeam, Mgmt: rundown.Dedicated})
		if err != nil {
			return nil, err
		}
		label := "seam-off"
		if seam {
			label = "seam-on"
		}
		e2, l2, i2 := ics.Leftover(pSeam)
		t.AddRow(fmt.Sprintf("%s %dx%d x2 sweeps", label, nSeam, nSeam),
			ics.PhaseGranules(), pSeam, e2, l2, i2, r.Makespan, fmt.Sprintf("%.4f", r.Utilization))
	}
	t.Note("seam mapping (the paper's foreseen checkerboard extension) releases next-colour points " +
		"as their neighbours complete, filling the final-wave idle processors")
	return t, nil
}
