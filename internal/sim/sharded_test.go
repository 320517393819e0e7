package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
)

// TestShardedModelCompletes: the Sharded model runs programs to completion
// with all compute conserved and every processor computing (no stolen
// executive processor).
func TestShardedModelCompletes(t *testing.T) {
	prog := twoPhase(t, 256, enable.NewIdentity())
	res, err := runProg(prog,
		core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 8, Mgmt: Sharded})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 8 || res.Procs != 8 {
		t.Errorf("workers=%d procs=%d, want 8/8", res.Workers, res.Procs)
	}
	if res.ComputeUnits != int64(prog.TotalCost()) {
		t.Errorf("compute=%d, want %d", res.ComputeUnits, prog.TotalCost())
	}
	if res.MgmtUnits == 0 {
		t.Error("sharded model charged no management")
	}
}

// TestShardedModelRelievesMgmtBottleneck: at fine grain the per-task
// management cost exceeds the per-task compute cost, so the serial
// executive is the bottleneck and the machine runs at its speed. The
// sharded model distributes that management across the processors, so the
// same program must finish strictly sooner.
func TestShardedModelRelievesMgmtBottleneck(t *testing.T) {
	build := func() *core.Program { return twoPhase(t, 1024, enable.NewIdentity()) }
	serial, err := runProg(build(),
		core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 8, Mgmt: StealsWorker})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := runProg(build(),
		core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 8, Mgmt: Sharded})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Makespan >= serial.Makespan {
		t.Errorf("sharded makespan %d not below serial %d", sharded.Makespan, serial.Makespan)
	}
	if sharded.Utilization <= serial.Utilization {
		t.Errorf("sharded utilization %.3f not above serial %.3f",
			sharded.Utilization, serial.Utilization)
	}
	if sharded.ComputeUnits != serial.ComputeUnits {
		t.Errorf("compute diverged: %d vs %d", sharded.ComputeUnits, serial.ComputeUnits)
	}
}

// TestShardedModelDeterminism: identical inputs, identical results.
func TestShardedModelDeterminism(t *testing.T) {
	run := func() *Result {
		prog := twoPhase(t, 512, enable.NewIdentity())
		res, err := runProg(prog,
			core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
			Config{Procs: 16, Mgmt: Sharded})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.MgmtUnits != b.MgmtUnits || a.IdleUnits != b.IdleUnits {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestShardedModelMakespanCoversTrailingMgmt: management charged to a
// worker's lane after its last task completes must not escape the
// makespan — the phase End time can never exceed the reported makespan.
func TestShardedModelMakespanCoversTrailingMgmt(t *testing.T) {
	prog := onePhase(t, 64)
	res, err := runProg(prog,
		core.Options{Grain: 4, Costs: core.DefaultCosts()},
		Config{Procs: 4, Mgmt: Sharded})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Phases {
		if pt.End > res.Makespan {
			t.Errorf("phase %d End=%d exceeds makespan %d", i, pt.End, res.Makespan)
		}
	}
}
