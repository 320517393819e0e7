package experiments

import (
	"context"
	"fmt"

	rundown "repro"
	"repro/internal/casper"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
)

// managerFilter optionally restricts E10 to one manager; cmd/experiments
// sets it from the -manager flag. Empty means run both head-to-head.
var managerFilter = ""

// SetManagerFilter restricts E10 and E13 to one executive manager
// ("serial", "sharded" or "async"); "both" or "" restores the
// head-to-head default. E10 compares serial and sharded; E13 adds async.
func SetManagerFilter(s string) error {
	if s == "" || s == "both" {
		managerFilter = ""
		return nil
	}
	if _, err := executive.ParseManager(s); err != nil {
		return err
	}
	managerFilter = s
	return nil
}

// execBatch is the completion batch size of the goroutine runs in E10 and
// E13, for every manager kind. Zero keeps the executive default.
// cmd/experiments sets it from its -batch flag.
var execBatch int

// SetExecKnobs threads the CLI's executive knob into the
// goroutine-executive experiments (E10, E13).
func SetExecKnobs(batch int) { execBatch = batch }

// runOnGoroutines runs prog through the front door — a Runner on workers
// goroutines under kind, with the CLI knob from SetExecKnobs — and returns
// the job's execution report.
func runOnGoroutines(prog *core.Program, opt core.Options, workers int, kind executive.ManagerKind) (*executive.Report, error) {
	r, err := rundown.New(rundown.WithWorkers(workers), rundown.WithManager(kind), rundown.WithBatch(execBatch))
	if err != nil {
		return nil, err
	}
	rep, err := r.Run(context.TODO(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		return nil, err
	}
	return rep.Exec, nil
}

// e10Workload is one real-work program generator for the manager
// comparison.
type e10Workload struct {
	name  string
	build func(scale Scale) (*core.Program, core.Options, error)
}

// e10Workloads builds the three workload families of the comparison:
// the fine-grain identity chain (management-bound — the serial
// executive's worst case), the CASPER mini-CFD pipeline (every mapping
// kind), and the red/black SOR checkerboard with seam overlap.
func e10Workloads() []e10Workload {
	return []e10Workload{
		{name: "chain(identity,fine)", build: func(scale Scale) (*core.Program, core.Options, error) {
			n := 1 << 15
			if scale == Quick {
				n = 1 << 12
			}
			dst := make([]float64, n)
			src := make([]float64, n)
			prog, err := core.NewProgram(
				&core.Phase{
					Name: "fill", Granules: n,
					Work:   func(g granule.ID) { src[g] = float64(g) * 1.5 },
					Enable: enable.NewIdentity(),
				},
				&core.Phase{
					Name: "scale", Granules: n,
					Work:   func(g granule.ID) { dst[g] = src[g] * 2 },
					Enable: enable.NewIdentity(),
				},
				&core.Phase{
					Name: "sum", Granules: n,
					Work: func(g granule.ID) { src[g] = dst[g] + src[g] },
				},
			)
			return prog, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, err
		}},
		{name: "casper(pipeline)", build: func(scale Scale) (*core.Program, core.Options, error) {
			n := 16384
			if scale == Quick {
				n = 4096
			}
			p, err := casper.NewPipeline(n)
			if err != nil {
				return nil, core.Options{}, err
			}
			prog, err := p.Program()
			return prog, core.Options{Grain: 64, Overlap: true, Elevate: true, Costs: core.DefaultCosts()}, err
		}},
		{name: "checkerboard(SOR)", build: func(scale Scale) (*core.Program, core.Options, error) {
			n, sweeps := 128, 4
			if scale == Quick {
				n, sweeps = 64, 2
			}
			g, err := casper.NewGrid(n, 1.3, casper.HotEdgeBoundary(n))
			if err != nil {
				return nil, core.Options{}, err
			}
			prog, err := g.SORProgram(sweeps, true)
			return prog, core.Options{Grain: 32, Overlap: true, Costs: core.DefaultCosts()}, err
		}},
	}
}

// E10Managers runs the two executive managers head-to-head on real
// goroutine workers (wall-clock time, not virtual time) across the three
// workload families. The serial manager reproduces the paper's structural
// bottleneck — one global lock serializes every dispatch and completion,
// so utilization collapses as grain shrinks; the sharded manager (local
// deques, batched completion submission, work stealing) pays that
// serialization once per batch and keeps processors busy through rundown.
func E10Managers(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Executive managers head-to-head (goroutine executive, wall-clock)",
		Paper: "beyond the paper: the serial executive itself made parallel; the paper's " +
			"serial manager is preserved as the baseline",
		Columns: []string{
			"workload", "manager", "workers", "tasks", "wall", "utilization", "compute:mgmt",
		},
	}
	workers := 8
	kinds := []executive.ManagerKind{executive.SerialManager, executive.ShardedManager}
	for _, wl := range e10Workloads() {
		for _, kind := range kinds {
			if managerFilter != "" && kind.String() != managerFilter {
				continue
			}
			prog, opt, err := wl.build(scale)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.name, err)
			}
			rep, err := runOnGoroutines(prog, opt, workers, kind)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", wl.name, kind, err)
			}
			t.AddRow(wl.name, kind.String(), workers, rep.Tasks,
				rep.Wall.Round(10_000).String(),
				fmt.Sprintf("%.3f", rep.Utilization),
				fmt.Sprintf("%.1f", rep.MgmtRatio))
		}
	}
	t.Note("wall-clock measurements vary with the host; the structural signal is the " +
		"utilization and compute:management gap between managers at fine grain")
	if managerFilter != "" {
		t.Note("restricted to -manager %s", managerFilter)
	}
	return t, nil
}
