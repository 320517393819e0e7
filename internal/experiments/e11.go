package experiments

import (
	"context"
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/granule"
	"repro/internal/workload"
)

// E11TenantPool prices multi-tenancy against the alternatives E9 frames:
// the introduction rejects multi-job-stream batching because a static
// split of the machine lengthens every job; the paper's overlap shortens
// a job but leaves cross-job idle capacity (serial actions, rundown
// tails) unrecovered. The tenant pool (internal/tenant, modelled in
// virtual time by a virtual Runner's RunAll) is the missing point in that design
// space: overlap-first dispatch inside each job plus cross-job backfill
// of whatever idle capacity remains.
//
// The workload pair is deliberately mixed — the regime where tenancy
// wins:
//
//   - "bursty": wide barriered phases split by serial actions. Alone it
//     saturates the machine during bursts and idles it between them. A
//     static split caps its bursts at half the machine and nearly
//     doubles them.
//   - "narrow": a chain of low-parallelism barriered phases with uneven
//     granule costs. Alone it holds a few processors and wastes the
//     rest; its home share in the pool covers its width, and its
//     rundown tails donate the spare moments to the bursty job.
//
// Claims the table must show (asserted by TestE11PoolDominates):
//
//   - the pool finishes both jobs sooner than E9's static two-stream
//     split (total throughput);
//   - each job's pool makespan stays within 10% of running alone on the
//     full machine with overlap;
//   - cross-job backfill actually flows (nonzero backfill units).
func E11TenantPool(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Multi-tenant pool vs static split vs sequential overlap (mixed pair)",
		Paper: "beyond the paper: E9 shows the static batch split lengthens each job; the " +
			"tenant pool backfills rundown across jobs without giving up per-job makespan",
		Columns: []string{
			"strategy", "bursty makespan", "narrow makespan", "both done", "utilization", "backfill units",
		},
	}

	procs := 32
	burstPhases, burstGranules := 6, 1984
	narrowPhases, narrowWidth := 9, 3
	serialCost := core.Cost(6000)
	burstyWeight, narrowWeight := 9, 1
	if scale == Quick {
		procs = 16
		burstPhases, burstGranules = 4, 960
		narrowPhases, narrowWidth = 5, 2
		burstyWeight, narrowWeight = 13, 2
	}

	bursty := func() (*core.Program, error) {
		phases := make([]*core.Phase, burstPhases)
		for i := range phases {
			phases[i] = &core.Phase{
				Name:     fmt.Sprintf("burst%d", i),
				Granules: burstGranules,
				Cost:     func(granule.ID) core.Cost { return 100 },
			}
			if i > 0 {
				phases[i].SerialCost = serialCost
			}
		}
		return core.NewProgram(phases...)
	}
	narrowCost := workload.UniformCost(3000, 9000, 1986)
	narrow := func() (*core.Program, error) {
		phases := make([]*core.Phase, narrowPhases)
		for i := range phases {
			phases[i] = &core.Phase{
				Name:     fmt.Sprintf("narrow%d", i),
				Granules: narrowWidth,
				Cost:     narrowCost,
			}
		}
		return core.NewProgram(phases...)
	}
	burstyOpt := func() core.Options {
		return core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
	}
	// The narrow job's phases are thinner than the bursty grain; grain 1
	// keeps its few granules independently dispatchable.
	narrowOpt := func() core.Options {
		return core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}
	}
	// Management runs under the Sharded model throughout: the tenant pool
	// gives every job its own manager with per-worker management lanes, so
	// a single shared serial executive (StealsWorker) would misprice it —
	// and the comparison arms must use the same machine model to be fair.
	machine := func(p int) rundown.SimConfig { return rundown.SimConfig{Procs: p, Mgmt: rundown.ShardedMgmt} }
	runAlone := func(build func() (*core.Program, error), opt core.Options, p int) (*rundown.SimResult, error) {
		prog, err := build()
		if err != nil {
			return nil, err
		}
		return simulate(prog, opt, machine(p))
	}

	// Reference: each job alone on the full machine with overlap.
	aloneBursty, err := runAlone(bursty, burstyOpt(), procs)
	if err != nil {
		return nil, err
	}
	aloneNarrow, err := runAlone(narrow, narrowOpt(), procs)
	if err != nil {
		return nil, err
	}
	totalCompute := aloneBursty.ComputeUnits + aloneNarrow.ComputeUnits
	t.AddRow("alone+overlap (reference)", aloneBursty.Makespan, aloneNarrow.Makespan,
		"-", "-", "-")

	// Sequential: the jobs run back to back, each with the full machine.
	seqBoth := aloneBursty.Makespan + aloneNarrow.Makespan
	t.AddRow("sequential overlap", aloneBursty.Makespan, aloneNarrow.Makespan, seqBoth,
		fmt.Sprintf("%.3f", float64(totalCompute)/(float64(procs)*float64(seqBoth))), 0)

	// Static split: E9's batch environment — each stream owns half the
	// machine for the whole run.
	splitBursty, err := runAlone(bursty, burstyOpt(), procs/2)
	if err != nil {
		return nil, err
	}
	splitNarrow, err := runAlone(narrow, narrowOpt(), procs/2)
	if err != nil {
		return nil, err
	}
	splitBoth := splitBursty.Makespan
	if splitNarrow.Makespan > splitBoth {
		splitBoth = splitNarrow.Makespan
	}
	t.AddRow("static split (E9 batch)", splitBursty.Makespan, splitNarrow.Makespan, splitBoth,
		fmt.Sprintf("%.3f", float64(totalCompute)/(float64(procs)*float64(splitBoth))), 0)

	// Tenant pool: both jobs share the machine under the overlap-first
	// cross-job dispatch policy.
	burstyProg, err := bursty()
	if err != nil {
		return nil, err
	}
	narrowProg, err := narrow()
	if err != nil {
		return nil, err
	}
	pool, err := rundown.New(rundown.WithVirtualTime(machine(procs)))
	if err != nil {
		return nil, err
	}
	rep, err := pool.RunAll(context.TODO(), []rundown.Job{
		{Name: "bursty", Prog: burstyProg, Opt: burstyOpt(), Weight: burstyWeight},
		{Name: "narrow", Prog: narrowProg, Opt: narrowOpt(), Weight: narrowWeight},
	})
	if err != nil {
		return nil, err
	}
	multi := rep.SimMulti
	t.AddRow("tenant pool", multi.Jobs[0].Makespan, multi.Jobs[1].Makespan, multi.Makespan,
		fmt.Sprintf("%.3f", multi.Utilization), multi.BackfillUnits)

	t.Note("%d-processor machine; bursty: %d wide barriered phases with serial actions; "+
		"narrow: %d-wide barriered chain, uneven granule costs", procs, burstPhases, narrowWidth)
	t.Note("pool both-done %d vs split %d vs sequential %d; per-job slowdown vs alone: "+
		"bursty %.2fx, narrow %.2fx; backfill %d units",
		multi.Makespan, splitBoth, seqBoth,
		float64(multi.Jobs[0].Makespan)/float64(aloneBursty.Makespan),
		float64(multi.Jobs[1].Makespan)/float64(aloneNarrow.Makespan),
		multi.BackfillUnits)
	return t, nil
}
