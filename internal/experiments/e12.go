package experiments

import (
	"fmt"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/workload"
)

// E12AdaptiveBatch prices the adaptive batching controller against fixed
// batch parameters under the simulator's Adaptive management model — the
// virtual-time analogue of the Chase-Lev sharded executive, where worker
// deque pops are free and every refill or completion-batch flush is one
// visit to the serialized global lock charging MgmtCosts.Acquire on top
// of the state-machine work.
//
// The batch size is the virtual-processor granularity trade-off
// (Argentini): too small and the Acquire charges serialize the machine at
// fine grain; too large and refills hoard tasks that idle workers needed
// through every rundown. The fixed rows sweep that trade-off; the
// adaptive row starts from the repo's fixed default (16) and must find
// the knee on its own, fed only the lock-overhead and hoarded-idle shares
// each epoch.
//
// Three workloads, one per failure mode of a fixed parameter:
//
//   - fine: grain-1 chain, thousands of tiny tasks — the default batch is
//     too small, the lock's Acquire charges dominate; the controller must
//     grow toward the sweep's knee.
//   - coarse: grain-64 chain with abundant tasks — nothing to tune; the
//     controller must hold and match the default within 3%.
//   - hoard: grain-64 chain with only 32 tasks per phase — the default
//     batch hands a whole phase to two workers; the controller must
//     shrink and clearly beat the default.
//
// Claims the table must show (asserted by TestE12AdaptiveBatch): adaptive
// beats the fixed default on fine grain and lands near the best fixed
// batch, matches the default within 3% on coarse grain, and rescues the
// hoarding configuration — all from the same starting parameters, fed
// only the lock-overhead and hoarded-idle shares.
func E12AdaptiveBatch(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Adaptive batch tuning vs fixed batches (batched executive, virtual time)",
		Paper: "beyond the paper: the E5 computation-to-management ratio turned into a " +
			"feedback signal that sizes the sharded executive's deque refills online",
		Columns: []string{
			"workload", "batch", "final", "changes", "makespan", "utilization", "compute:mgmt",
		},
	}

	procs := 16
	fineGranules, hoardPhases := 4096, 8
	if scale == Quick {
		fineGranules, hoardPhases = 2048, 6
	}
	// Acquire priced at 64 units: a contended lock handoff (cache-line
	// transfer, wakeup) costs an order of magnitude more than one
	// scheduler operation, which is what makes the amortization axis
	// worth tuning at fine grain.
	costs := core.DefaultCosts()
	costs.Acquire = 64

	type wl struct {
		name            string
		phases          int
		granules, grain int
	}
	workloads := []wl{
		{"chain(identity,fine)", 3, fineGranules, 1},
		{"chain(identity,coarse)", 3, 32768, 64},
		{"chain(identity,hoard)", hoardPhases, 2048, 64},
	}
	fixedBatches := []int{1, 4, 16, 64}

	for _, w := range workloads {
		run := func(opts ...rundown.Option) (*rundown.SimResult, error) {
			prog, err := workload.Chain(enable.Identity, w.phases, w.granules,
				workload.UniformCost(100, 400, 1986), 1986)
			if err != nil {
				return nil, err
			}
			return simulate(prog, core.Options{Grain: w.grain, Overlap: true, Costs: costs},
				rundown.SimConfig{Procs: procs, Mgmt: rundown.AdaptiveMgmt}, opts...)
		}
		for _, b := range fixedBatches {
			res, err := run(rundown.WithBatch(b))
			if err != nil {
				return nil, fmt.Errorf("%s/batch=%d: %w", w.name, b, err)
			}
			t.AddRow(w.name, fmt.Sprintf("fixed %d", b), res.Batch, res.BatchChanges,
				res.Makespan, fmt.Sprintf("%.3f", res.Utilization),
				fmt.Sprintf("%.1f", res.MgmtRatio))
		}
		res, err := run(rundown.WithBatch(16), rundown.WithAdaptiveBatching(0.03))
		if err != nil {
			return nil, fmt.Errorf("%s/adaptive: %w", w.name, err)
		}
		t.AddRow(w.name, "adaptive", res.Batch, res.BatchChanges,
			res.Makespan, fmt.Sprintf("%.3f", res.Utilization),
			fmt.Sprintf("%.1f", res.MgmtRatio))
	}

	t.Note("%d processors, identity chains, uniform cost 100..400, Acquire=64; the adaptive "+
		"rows start from the fixed default (16); fine: %d granules/phase at grain 1, coarse: "+
		"32768 at grain 64, hoard: %d phases of 2048 at grain 64 (32 tasks/phase)",
		procs, fineGranules, hoardPhases)
	t.Note("batched-executive model: deque pops are free, refills and completion flushes " +
		"serialize on the global lock; 'final' is where the batch ended, 'changes' how often " +
		"the controller moved it")
	return t, nil
}
