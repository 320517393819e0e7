package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// E9JobStreams reproduces the introduction's argument against the
// multi-parallel-job-stream alternative: filling one job's rundown with
// another job's work "will bring processor utilization up; however, it
// should be recognized that the primary goal of parallel processing is to
// reduce elapsed wall-clock time for a given job. The introduction of such
// a 'batch' environment will inevitably distribute processor resources
// among the several job streams and, thus, reduce the total processing
// power on any particular job and lengthen its elapsed wall-clock time."
//
// Two identical CASPER-profile jobs are scheduled three ways:
//
//   - alone/barrier: each job gets the whole machine, phases barriered
//     (the baseline both alternatives try to improve);
//   - batch: the machine is split between the two job streams, so each
//     job's rundown is covered by the other stream's work — utilization
//     rises, per-job wall-clock roughly doubles;
//   - overlap: each job gets the whole machine with phase overlap — the
//     paper's proposal raises utilization AND shortens the job.
func E9JobStreams(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Multi-job-stream batching vs phase overlap (two identical jobs)",
		Paper: "a batch environment brings utilization up but lengthens each job's elapsed " +
			"wall-clock time; overlap improves both",
		Columns: []string{
			"strategy", "procs/job", "per-job makespan", "both-jobs done", "utilization",
		},
	}
	procs, gpl := 32, 4
	if scale == Quick {
		procs, gpl = 16, 2
	}
	build := func() (*core.Program, error) {
		return workload.CasperProgram(workload.CasperConfig{
			GranulesPerLine: gpl,
			Cost:            workload.UniformCost(100, 500, 31),
			SerialCost:      100,
			Seed:            31,
		})
	}
	run := func(p int, overlap bool) (*rundown.SimResult, error) {
		prog, err := build()
		if err != nil {
			return nil, err
		}
		return simulate(prog, core.Options{
			Grain: 8, Overlap: overlap, Elevate: true, Costs: core.DefaultCosts(),
		}, rundown.SimConfig{Procs: p, Mgmt: rundown.StealsWorker})
	}

	// Alone, barriered: jobs run back to back on the full machine.
	alone, err := run(procs, false)
	if err != nil {
		return nil, err
	}
	t.AddRow("alone+barrier", procs, alone.Makespan, 2*alone.Makespan,
		fmt.Sprintf("%.3f", alone.Utilization))

	// Batch: each job stream owns half the machine; the streams run
	// concurrently, so machine-wide utilization is their mean, and both
	// jobs finish when the (identical) streams do.
	batch, err := run(procs/2, false)
	if err != nil {
		return nil, err
	}
	t.AddRow("batch (2 streams)", procs/2, batch.Makespan, batch.Makespan,
		fmt.Sprintf("%.3f", batch.Utilization))

	// Overlap: the paper's proposal, full machine per job.
	overlap, err := run(procs, true)
	if err != nil {
		return nil, err
	}
	t.AddRow("overlap", procs, overlap.Makespan, 2*overlap.Makespan,
		fmt.Sprintf("%.3f", overlap.Utilization))

	t.Note("two identical CASPER-profile jobs, %d-processor machine, uniform cost 100..500", procs)
	t.Note("batch raises utilization by shrinking each job's machine — and roughly doubles the "+
		"per-job wall-clock (%d vs %d); overlap raises utilization while shortening the job",
		batch.Makespan, alone.Makespan)
	return t, nil
}
