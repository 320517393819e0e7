package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	rundown "repro"
	"repro/internal/stats"
)

// sim-scale: the two virtual-time engines run back to back. Only
// internal/sim (and internal/core under it) works; there are no goroutine
// workers. Host speed is what the end-to-end numbers measure; the
// simulated statistics come off the virtual clock and repeat exactly.

var simModels = []rundown.MgmtModel{
	rundown.StealsWorker, rundown.Dedicated, rundown.ShardedMgmt, rundown.AdaptiveMgmt, rundown.AsyncMgmt,
}

const simProcs = 64

type simScale struct {
	cfg runCfg
	// (a) the single-program engine: one identity chain under each
	// model, and the CASPER census program with overlap on and off.
	chain    *rundown.Program
	chainOpt rundown.Options
	casper   *rundown.Program
	// (b) the multi-program engine: mixed co-tenants under each model.
	mixed []rundown.Job
	// (c) the scale case: 32 jobs, a million granules, 1024 processors.
	million []rundown.Job
}

func setupSimScale(cfg runCfg) (instance, error) {
	s := &simScale{cfg: cfg, chainOpt: rundown.Options{Grain: 64, Overlap: true, Costs: rundown.DefaultCosts()}}
	var err error
	if s.chain, err = rundown.Chain(rundown.KindIdentity, 4, 16384, rundown.UnitCost(), cfg.seed); err != nil {
		return nil, err
	}
	// The census program's selection maps and skip pattern come from the
	// seed, so the simulated statistics differ between seeds and repeat
	// exactly on one.
	s.casper, err = rundown.CasperProgram(rundown.CasperConfig{
		GranulesPerLine: 6, Cycles: 2, SerialCost: 100, Seed: cfg.seed,
		Cost: rundown.ConditionalSkip(300, 0.2, cfg.seed),
	})
	if err != nil {
		return nil, err
	}
	s.mixed = make([]rundown.Job, 8)
	for i := range s.mixed {
		prog, err := rundown.Chain(rundown.KindIdentity, 3, 2048+512*i, rundown.UnitCost(), cfg.seed+uint64(i))
		if err != nil {
			return nil, err
		}
		s.mixed[i] = rundown.Job{
			Name: "job" + strconv.Itoa(i), Prog: prog, Priority: i % 2, Weight: 1 + i%3,
			Opt: rundown.Options{Grain: 8, Overlap: true, Costs: rundown.DefaultCosts()},
		}
	}
	s.million = make([]rundown.Job, 32)
	for i := range s.million {
		prog, err := rundown.Chain(rundown.KindIdentity, 4, 1_000_000/(4*32), rundown.UnitCost(), cfg.seed+uint64(i))
		if err != nil {
			return nil, err
		}
		s.million[i] = rundown.Job{
			Name: "job" + strconv.Itoa(i), Prog: prog, Priority: i % 3, Weight: 1 + i%2,
			Opt: rundown.Options{Grain: 4, Overlap: true, Costs: rundown.DefaultCosts()},
		}
	}
	// Warm-up: one discarded round.
	if warm := newSimTotals(); s.round(nil, 0, warm) == 0 || warm.res.failed > 0 {
		return nil, fmt.Errorf("sim-scale warm-up: %v", warm.res.errs)
	}
	return s, nil
}

func (s *simScale) Close() error { return nil }

func casperOptions(overlap bool) rundown.Options {
	return rundown.Options{Grain: 8, Overlap: overlap, Elevate: true, Costs: rundown.DefaultCosts()}
}

// simTotals accumulates a window's runs.
type simTotals struct {
	res          *result // attempted and failed runs
	granules     int64
	host         map[string]time.Duration // host time by series
	work         map[string]int64         // simulated granules by series
	millionMS    []float64
	millionAlloc []float64
	last         map[string]*rundown.Report // the latest report by series, for the exact statistics
}

func newSimTotals() *simTotals {
	return &simTotals{res: newResult(), host: map[string]time.Duration{}, work: map[string]int64{}, last: map[string]*rundown.Report{}}
}

func totalGranules(jobs []rundown.Job) int64 {
	var n int64
	for _, j := range jobs {
		n += int64(j.Prog.TotalGranules())
	}
	return n
}

// checkSim is the simulator's correctness check: every granule's cost is
// computed exactly once, and workers' compute and parked time fit inside
// the machine's capacity.
func checkSim(compute, idle, want int64, procs int, makespan int64, util float64) error {
	switch {
	case compute != want:
		return fmt.Errorf("computed %d units, program costs %d", compute, want)
	case compute+idle > int64(procs)*makespan:
		return fmt.Errorf("compute %d + idle %d exceed P·makespan = %d", compute, idle, int64(procs)*makespan)
	case util <= 0 || util > 1:
		return fmt.Errorf("utilization %v outside (0, 1]", util)
	}
	return nil
}

// round is one pass over (a), (b) and (c); it returns how many runs that
// was.
func (s *simScale) round(rec *recorder, id int, tot *simTotals) int {
	start := time.Now()
	root := rec.add(0, id, "round", start, start)
	runs := 0
	// run builds a fresh Runner (as a caller would) and runs jobs on it:
	// one job through Run and the single-program engine, several through
	// RunAll and the multi-program engine.
	run := func(series string, cfg rundown.SimConfig, jobs ...rundown.Job) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		t0 := time.Now()
		r, err := rundown.New(rundown.WithVirtualTime(cfg))
		t1 := time.Now()
		rec.add(root, id, "rundown.New", t0, t1)
		var rep *rundown.Report
		if err == nil {
			if len(jobs) == 1 {
				rep, err = r.Run(ctx, jobs[0])
			} else {
				rep, err = r.RunAll(ctx, jobs)
			}
		}
		t2 := time.Now()
		rec.add(root, id, series, t1, t2)
		runs++
		tot.res.attempted++
		if err == nil {
			if rep.Sim != nil {
				err = checkSim(rep.Sim.ComputeUnits, rep.Sim.IdleUnits, int64(jobs[0].Prog.TotalCost()), rep.Sim.Procs, rep.Sim.Makespan, rep.Sim.Utilization)
			} else {
				var want int64
				for _, j := range jobs {
					want += int64(j.Prog.TotalCost())
				}
				m := rep.SimMulti
				err = checkSim(m.ComputeUnits, m.IdleUnits, want, m.Procs, m.Makespan, m.Utilization)
			}
		}
		if err != nil {
			tot.res.fail(fmt.Errorf("sim-scale %s: %w", series, err))
			return
		}
		g := totalGranules(jobs)
		tot.granules += g
		tot.host[series] += t2.Sub(t0)
		tot.work[series] += g
		tot.last[series] = rep
	}
	for i, m := range simModels {
		run("Run.single."+modelNames[i], rundown.SimConfig{Procs: simProcs, Mgmt: m}, rundown.Job{Prog: s.chain, Opt: s.chainOpt})
	}
	for _, overlap := range []bool{true, false} {
		run("Run.casper.overlap-"+strconv.FormatBool(overlap), rundown.SimConfig{Procs: simProcs, Mgmt: rundown.StealsWorker},
			rundown.Job{Prog: s.casper, Opt: casperOptions(overlap)})
	}
	for i, m := range simModels {
		run("RunAll.multi."+modelNames[i], rundown.SimConfig{Procs: simProcs, Mgmt: m}, s.mixed...)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	run("RunAll.million", rundown.SimConfig{Procs: 1024, Mgmt: rundown.ShardedMgmt}, s.million...)
	tot.millionMS = append(tot.millionMS, ms(time.Since(t0)))
	runtime.ReadMemStats(&m1)
	tot.millionAlloc = append(tot.millionAlloc, float64(m1.Mallocs-m0.Mallocs))
	rec.end(root, time.Now())
	return runs
}

func (s *simScale) Measure(window time.Duration, rec *recorder) (*result, error) {
	tot := newSimTotals()
	var lat []float64
	var cal calibrator
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for id := 1; time.Since(start) < window; id++ {
		t0 := time.Now()
		runs := s.round(rec, id, tot)
		lat = append(lat, ms(time.Since(t0))/float64(runs))
		cal.sample()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := tot.res
	if res.failed > 0 {
		// The statistics below read reports that a failed run did not leave.
		return nil, fmt.Errorf("sim-scale: %d of %d runs failed: %v", res.failed, res.attempted, res.errs)
	}
	on, off := tot.last["Run.casper.overlap-true"].Sim, tot.last["Run.casper.overlap-false"].Sim
	// As in exec-fine, a sample is one round's mean run time, and times and
	// rates are reported at reference host speed (calib.go).
	cal.report(res, "sim-scale", lat, float64(res.attempted), float64(tot.granules), elapsed)
	res.e2e["utilization"] = on.Utilization
	res.e2e["allocs_per_job"] = stats.Ratio(float64(m1.Mallocs-m0.Mallocs-cal.mallocs()), float64(res.attempted))

	var rundownIdle int64
	for _, ph := range on.Phases {
		rundownIdle += ph.IdleUnits
	}
	res.layer["sim_overlap_speedup"] = stats.Ratio(float64(off.Makespan), float64(on.Makespan))
	res.layer["sim_rundown_idle_share"] = stats.Ratio(float64(rundownIdle), float64(int64(on.Procs)*on.Makespan))
	for _, m := range modelNames {
		single, multi := "Run.single."+m, "RunAll.multi."+m
		res.layer["sim.single."+m+".ns_per_granule"] = stats.Ratio(float64(tot.host[single]), float64(tot.work[single]))
		res.layer["sim.multi."+m+".ns_per_granule"] = stats.Ratio(float64(tot.host[multi]), float64(tot.work[multi]))
		res.layer["sim."+m+".utilization"] = tot.last[single].Sim.Utilization
		res.layer["sim."+m+".mgmt_ratio"] = tot.last[single].Sim.MgmtRatio
	}
	res.layer["sim.million.run_ms"] = median(tot.millionMS)
	res.layer["sim.allocs_per_run"] = median(tot.millionAlloc)

	// Végh's effective parallelization of the identity chain under the
	// sharded model, against the same model at P=1. Virtual time, so one
	// run each is exact.
	makespan := func(procs int) (int64, error) {
		r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: procs, Mgmt: rundown.ShardedMgmt}))
		if err != nil {
			return 0, err
		}
		rep, err := r.Run(context.Background(), rundown.Job{Prog: s.chain, Opt: s.chainOpt})
		if err != nil {
			return 0, err
		}
		return rep.Makespan, nil
	}
	t1, err := makespan(1)
	if err != nil {
		return nil, err
	}
	for _, p := range []int{64, 1024} {
		tp, err := makespan(p)
		if err != nil {
			return nil, err
		}
		res.layer["sim.alpha_eff.p"+strconv.Itoa(p)] = alphaEff(p, stats.Ratio(float64(t1), float64(tp)))
	}
	return res, nil
}
