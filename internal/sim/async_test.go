package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/workload"
)

// TestAsyncModelCompletes: the Async model runs programs to completion
// with all compute conserved and every processor computing (the dedicated
// executive is extra, not stolen).
func TestAsyncModelCompletes(t *testing.T) {
	prog := twoPhase(t, 256, enable.NewIdentity())
	res, err := runProg(prog,
		core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 8, Mgmt: Async})
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
		t.Error("async model charged no management")
	}
	if res.Utilization > 1.0000001 {
		t.Errorf("utilization %v > 1", res.Utilization)
	}
}

// TestAsyncModelDeterministic: identical inputs produce identical results.
func TestAsyncModelDeterministic(t *testing.T) {
	run := func() *Result {
		prog, err := workload.Chain(enable.Identity, 3, 512,
			workload.UniformCost(100, 400, 1986), 1986)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runProg(prog, core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()},
			Config{Procs: 12, Mgmt: Async, ReadyCap: 16})
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

// TestAsyncBeatsStealsWorkerFineGrain: the central comparison the model
// exists to price. At fine grain with real granule work, the steals-worker
// executive costs a whole processor and makes every ask wait its turn at
// the serial server; the async model computes on all P processors and
// pops the ready-buffer for free, so it must strictly shorten the
// makespan. (On a purely management-bound workload the two models tie —
// one serial server is the bottleneck either way; that is correct
// pricing, not a gain the async executive can claim.)
func TestAsyncBeatsStealsWorkerFineGrain(t *testing.T) {
	build := func() *core.Program {
		prog, err := workload.Chain(enable.Identity, 2, 1024,
			workload.UniformCost(40, 120, 1986), 1986)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	opt := func() core.Options {
		return core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}
	}
	serial, err := runProg(build(), opt(), Config{Procs: 8, Mgmt: StealsWorker})
	if err != nil {
		t.Fatal(err)
	}
	async, err := runProg(build(), opt(), Config{Procs: 8, Mgmt: Async})
	if err != nil {
		t.Fatal(err)
	}
	if async.Makespan >= serial.Makespan {
		t.Errorf("async makespan %d not below steals-worker %d", async.Makespan, serial.Makespan)
	}
	if async.Utilization <= serial.Utilization {
		t.Errorf("async utilization %.3f not above steals-worker %.3f",
			async.Utilization, serial.Utilization)
	}
	if async.ComputeUnits != serial.ComputeUnits {
		t.Errorf("compute diverged: %d vs %d", async.ComputeUnits, serial.ComputeUnits)
	}
}

// TestAsyncReadyCapMatters pins the ready-buffer knob to behaviour, not
// just plumbing. The workload queues a long deferred composite-map build
// (reverse-indirect mapping, small MapChunk, so the build occupies the
// dedicated server across many chunks). A well-sized buffer lets workers
// compute through the build — the overlap the low-water rule exists for —
// while a one-slot buffer makes every dispatch wait behind the build
// chunk in progress, so the generous buffer must finish strictly sooner.
func TestAsyncReadyCapMatters(t *testing.T) {
	const n = 2048
	run := func(readyCap int) *Result {
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "produce", Granules: n,
				Cost: workload.UniformCost(20, 80, 7),
				Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
					return []granule.ID{r, (r + 1) % granule.ID(n)}
				}),
			},
			&core.Phase{Name: "gather", Granules: n, Cost: workload.UniformCost(20, 80, 11)},
		)
		if err != nil {
			t.Fatal(err)
		}
		costs := core.DefaultCosts()
		costs.MapChunk = 8
		res, err := runProg(prog, core.Options{
			Grain: 2, Overlap: true, Elevate: true, Costs: costs,
		}, Config{Procs: 8, Mgmt: Async, ReadyCap: readyCap})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	starved, fed := run(1), run(64)
	if fed.Makespan >= starved.Makespan {
		t.Errorf("64-slot buffer makespan %d not below one-slot buffer %d",
			fed.Makespan, starved.Makespan)
	}
	if fed.ComputeUnits != starved.ComputeUnits {
		t.Errorf("compute diverged: %d vs %d", fed.ComputeUnits, starved.ComputeUnits)
	}
}

// TestAsyncDeferredOverlapLowWater: with a deferred composite-map build
// queued and the buffer kept above the low-water mark, the server absorbs
// the build while workers compute; the run completes with the deferred
// items accounted.
func TestAsyncDeferredOverlapLowWater(t *testing.T) {
	n := 512
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: n,
			Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{r, (r + 1) % granule.ID(n)}
			}),
		},
		&core.Phase{Name: "gather", Granules: n},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runProg(prog, core.Options{
		Grain: 4, Overlap: true, Elevate: true, Costs: core.DefaultCosts(),
	}, Config{Procs: 8, Mgmt: Async, ReadyCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.DeferredItems == 0 {
		t.Error("no deferred management queued — the low-water overlap path went unexercised")
	}
	if res.ComputeUnits != int64(prog.TotalCost()) {
		t.Errorf("compute=%d, want %d", res.ComputeUnits, prog.TotalCost())
	}
}

// TestAsyncConservationRandomPrograms drives random programs through the
// Async model and checks the accounting identities that must hold for any
// schedule — the same invariants the main conservation sweep checks for
// the paper's models.
func TestAsyncConservationRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(41986))
	for iter := 0; iter < 40; iter++ {
		nPhases := 1 + rng.Intn(5)
		phases := make([]*core.Phase, nPhases)
		var serialSum core.Cost
		for i := range phases {
			phases[i] = &core.Phase{
				Name:     string(rune('a' + i)),
				Granules: rng.Intn(300),
				Cost:     workload.UniformCost(1, core.Cost(1+rng.Intn(200)), rng.Uint64()),
			}
			if i > 0 && rng.Intn(3) == 0 {
				sc := core.Cost(rng.Intn(50))
				phases[i].SerialCost = sc
				serialSum += sc
			}
		}
		for i := 0; i < nPhases-1; i++ {
			if phases[i+1].SerialCost > 0 {
				continue // must stay null
			}
			switch rng.Intn(4) {
			case 0:
				// null
			case 1:
				phases[i].Enable = enable.NewUniversal()
			case 2:
				phases[i].Enable = enable.NewIdentity()
			case 3:
				n := phases[i].Granules
				if n == 0 {
					phases[i].Enable = enable.NewUniversal()
					continue
				}
				phases[i].Enable = enable.NewReverse(func(r granule.ID) []granule.ID {
					return []granule.ID{r % granule.ID(n)}
				})
			}
		}
		prog, err := core.NewProgram(phases...)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		procs := 1 + rng.Intn(13)
		res, err := runProg(prog, core.Options{
			Grain:      1 + rng.Intn(30),
			Overlap:    rng.Intn(3) != 0,
			Elevate:    rng.Intn(2) == 0,
			InlineMaps: rng.Intn(2) == 0,
			Split:      core.SplitPolicy(rng.Intn(2)),
			SuccSplit:  core.SuccSplitMode(rng.Intn(2)),
			Costs:      core.DefaultCosts(),
		}, Config{
			Procs: procs, Mgmt: Async,
			ReadyCap: rng.Intn(40),
		})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		if want := int64(prog.TotalCost()); res.ComputeUnits != want {
			t.Fatalf("iter %d: compute %d != program cost %d", iter, res.ComputeUnits, want)
		}
		if res.Utilization > 1.0000001 {
			t.Fatalf("iter %d: utilization %v > 1", iter, res.Utilization)
		}
		if res.SerialUnits != int64(serialSum) {
			t.Fatalf("iter %d: serial %d != declared %d", iter, res.SerialUnits, serialSum)
		}
		for i, pt := range res.Phases {
			if prog.Phases[i].Granules == 0 {
				continue
			}
			if pt.Start < 0 || pt.End > res.Makespan || pt.End < pt.Start {
				t.Fatalf("iter %d: phase %d window [%d,%d] outside [0,%d]",
					iter, i, pt.Start, pt.End, res.Makespan)
			}
		}
	}
}

// TestMultiAcceptsEveryModel: RunMulti prices every named management
// model — the Async ready buffer and the Adaptive shards included — and
// each run executes every granule of every job; a value outside
// ModelNames is rejected with ErrUnsupportedMgmt.
func TestMultiAcceptsEveryModel(t *testing.T) {
	for _, name := range append(ModelNames(), "") {
		model := MgmtModel(250)
		if name != "" {
			var err error
			if model, err = ParseModel(name); err != nil {
				t.Fatal(err)
			}
		}
		jobs := []JobSpec{
			{Prog: twoPhase(t, 64, enable.NewIdentity()),
				Opt: core.Options{Grain: 4, Costs: core.DefaultCosts()}},
			{Prog: twoPhase(t, 48, enable.NewIdentity()),
				Opt: core.Options{Grain: 4, Costs: core.DefaultCosts()}},
		}
		want := int64(jobs[0].Prog.TotalCost() + jobs[1].Prog.TotalCost())
		res, err := runJobs(jobs, Config{Procs: 4, Mgmt: model})
		if name == "" {
			if !errors.Is(err, ErrUnsupportedMgmt) {
				t.Errorf("%v: err = %v, want wrapped ErrUnsupportedMgmt", model, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: RunMulti rejected a supported model: %v", model, err)
			continue
		}
		if res.ComputeUnits != want {
			t.Errorf("%v: compute units %d, want %d", model, res.ComputeUnits, want)
		}
	}
}
