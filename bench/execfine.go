package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	rundown "repro"
	"repro/internal/stats"
)

// exec-fine: a three-phase identity chain of tiny granules on the
// goroutine executive, where management is all the work there is.

const (
	finePhases   = 3
	fineGranules = 1 << 15 // per phase
)

// fineGrains are the task sizes each round runs every manager at: 2 is
// where per-task management dominates and the managers differ most, 8 is
// the coarse end of "fine". (Grain 1 quadruples a round's length without
// ranking the managers differently.)
var fineGrains = []int{2, 8}

// fineProgram is the exec-fine program with its exactly-once ledger.
type fineProgram struct {
	prog  *rundown.Program
	seen  [finePhases][]uint8
	early atomic.Int64 // granules that ran before the granule enabling them
}

func newFineProgram() (*fineProgram, error) {
	f := &fineProgram{}
	phases := make([]*rundown.Phase, finePhases)
	for k := range phases {
		f.seen[k] = make([]uint8, fineGranules)
		ph := &rundown.Phase{Name: fmt.Sprintf("p%d", k), Granules: fineGranules}
		mine := f.seen[k]
		if k == 0 {
			ph.Work = func(g rundown.GranuleID) { mine[g]++ }
		} else {
			pred := f.seen[k-1]
			ph.Work = func(g rundown.GranuleID) {
				if pred[g] == 0 {
					f.early.Add(1)
				}
				mine[g]++
			}
		}
		if k < finePhases-1 {
			ph.Enable = rundown.Identity()
		}
		phases[k] = ph
	}
	var err error
	f.prog, err = rundown.NewProgram(phases...)
	return f, err
}

func fineOptions(grain int) rundown.Options {
	return rundown.Options{Grain: grain, Overlap: true, IdentityVia: rundown.IdentityTable, Costs: rundown.DefaultCosts()}
}

// check verifies the ledger after one run — every granule exactly once,
// none before its enabler — and clears it for the next.
func (f *fineProgram) check() error {
	for k := range f.seen {
		for g, n := range f.seen[k] {
			if n != 1 {
				return fmt.Errorf("phase %d granule %d executed %d times", k, g, n)
			}
		}
		clear(f.seen[k])
	}
	if n := f.early.Swap(0); n != 0 {
		return fmt.Errorf("%d granules ran before the granule that enables them", n)
	}
	return nil
}

// fineRunner is one executive configuration of the round.
type fineRunner struct {
	name    string // manager name, or "p1" for the single-thread baseline
	workers int
	r       *rundown.Runner
}

// managerOptions are the Runner options for each named manager at w
// workers; deque and batch sizes follow the repository's own manager
// benchmarks.
func managerOptions(name string, w int) []rundown.Option {
	opts := []rundown.Option{rundown.WithWorkers(w)}
	switch name {
	case "serial":
		opts = append(opts, rundown.WithManager(rundown.SerialManager))
	case "sharded":
		opts = append(opts, rundown.WithManager(rundown.ShardedManager), rundown.WithDequeCap(32), rundown.WithBatch(16))
	case "adaptive":
		opts = append(opts, rundown.WithManager(rundown.ShardedManager), rundown.WithDequeCap(32), rundown.WithBatch(16), rundown.WithAdaptiveBatching(0))
	case "async":
		opts = append(opts, rundown.WithManager(rundown.AsyncManager))
	}
	return opts
}

type execFine struct {
	cfg     runCfg
	prog    *fineProgram
	runners []fineRunner
}

func setupExecFine(cfg runCfg) (instance, error) {
	e := &execFine{cfg: cfg}
	var err error
	if e.prog, err = newFineProgram(); err != nil {
		return nil, err
	}
	for _, m := range managerNames {
		r, err := rundown.New(managerOptions(m, cfg.nproc)...)
		if err != nil {
			return nil, err
		}
		e.runners = append(e.runners, fineRunner{m, cfg.nproc, r})
	}
	r, err := rundown.New(managerOptions("serial", 1)...)
	if err != nil {
		return nil, err
	}
	e.runners = append(e.runners, fineRunner{"p1", 1, r})
	// Warm-up: one discarded round.
	if warm := newFineTotals(); e.round(nil, 0, warm) == 0 || warm.res.failed > 0 {
		return nil, fmt.Errorf("exec-fine warm-up: %v", warm.res.errs)
	}
	return e, nil
}

func (e *execFine) Close() error { return nil }

// fineTotals accumulates ExecReports per runner and grain over a window.
type fineTotals struct {
	res  *result // attempted and failed runs
	sums map[fineKey]*execSum
}

type fineKey struct {
	runner string
	grain  int
}

type execSum struct {
	runs                      int
	wall, compute, mgmt, idle time.Duration
}

func (s *execSum) add(runs int, wall, compute, mgmt, idle time.Duration) {
	s.runs += runs
	s.wall += wall
	s.compute += compute
	s.mgmt += mgmt
	s.idle += idle
}

func newFineTotals() *fineTotals {
	return &fineTotals{res: newResult(), sums: map[fineKey]*execSum{}}
}

// of sums one runner's reports over the given grains.
func (t *fineTotals) of(runner string, grains ...int) execSum {
	var out execSum
	for _, g := range grains {
		if s := t.sums[fineKey{runner, g}]; s != nil {
			out.add(s.runs, s.wall, s.compute, s.mgmt, s.idle)
		}
	}
	return out
}

// round runs every manager at every grain, plus the P=1 baseline at the
// finest grain, and returns how many runs that was.
func (e *execFine) round(rec *recorder, id int, tot *fineTotals) int {
	start := time.Now()
	var root, runs int
	one := func(fr fineRunner, grain int) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		t0 := time.Now()
		rep, err := fr.r.Run(ctx, rundown.Job{Prog: e.prog.prog, Opt: fineOptions(grain)})
		if rec != nil {
			rec.add(root, id, fmt.Sprintf("Run.%s.g%d", fr.name, grain), t0, time.Now())
		}
		runs++
		tot.res.attempted++
		// The ledger is checked, and so cleared, whether or not the run failed.
		if cerr := e.prog.check(); err == nil {
			err = cerr
		}
		if err == nil && rep.Tasks != rep.Exec.Sched.Completions {
			err = fmt.Errorf("tasks %d, completions %d", rep.Tasks, rep.Exec.Sched.Completions)
		}
		if err != nil {
			tot.res.fail(fmt.Errorf("exec-fine %s grain %d: %w", fr.name, grain, err))
			return
		}
		key := fineKey{fr.name, grain}
		if tot.sums[key] == nil {
			tot.sums[key] = &execSum{}
		}
		tot.sums[key].add(1, rep.Exec.Wall, rep.Exec.Compute, rep.Exec.Mgmt, rep.Exec.Idle)
	}
	// The root is recorded first so its children can name it; its end is
	// set once the round is over.
	root = rec.add(0, id, "round", start, start)
	for _, grain := range fineGrains {
		for _, fr := range e.runners[:len(managerNames)] {
			one(fr, grain)
		}
	}
	one(e.runners[len(managerNames)], fineGrains[0])
	rec.end(root, time.Now())
	return runs
}

func (e *execFine) Measure(window time.Duration, rec *recorder) (*result, error) {
	tot := newFineTotals()
	var lat []float64
	var cal calibrator
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for id := 1; time.Since(start) < window; id++ {
		t0 := time.Now()
		runs := e.round(rec, id, tot)
		lat = append(lat, ms(time.Since(t0))/float64(runs))
		cal.sample()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := tot.res
	ok := float64(res.attempted - res.failed)
	var compute, capacity float64
	for _, fr := range e.runners {
		s := tot.of(fr.name, fineGrains...)
		compute += float64(s.compute)
		capacity += float64(fr.workers) * float64(s.wall)
	}
	// A sample is one round's mean Run time: every manager and grain is in
	// every sample in fixed proportion, so the percentiles do not sit in a
	// gap between two configurations' modes. Times and rates are reported
	// at reference host speed (calib.go).
	cal.report(res, "exec-fine", lat, ok, ok*finePhases*fineGranules, elapsed)
	res.e2e["utilization"] = stats.Ratio(compute, capacity)
	res.e2e["allocs_per_job"] = stats.Ratio(float64(m1.Mallocs-m0.Mallocs-cal.mallocs()), float64(res.attempted))

	for _, m := range managerNames {
		s := tot.of(m, fineGrains...)
		machine := float64(e.cfg.nproc) * float64(s.wall)
		res.layer["executive."+m+".granules_per_s"] = stats.Ratio(float64(s.runs)*finePhases*fineGranules, s.wall.Seconds())
		res.layer["executive."+m+".mgmt_share"] = stats.Ratio(float64(s.mgmt), machine)
		res.layer["executive."+m+".idle_share"] = stats.Ratio(float64(s.idle), machine)
		res.layer["executive."+m+".mgmt_ratio"] = stats.Ratio(float64(s.compute), float64(s.mgmt))
	}
	// Scaling figures: the sharded manager at P=nproc against the P=1
	// serial run of the same program at the same grain.
	base, par := tot.of("p1", fineGrains[0]), tot.of("sharded", fineGrains[0])
	speedup := stats.Ratio(float64(base.wall)/float64(max(base.runs, 1)), float64(par.wall)/float64(max(par.runs, 1)))
	res.layer["executive.speedup"] = speedup
	res.layer["executive.alpha_eff"] = alphaEff(e.cfg.nproc, speedup)
	// Acar et al.'s work inflation (arXiv 1709.03767): busy processor-time
	// at P over the P=1 run of the same program.
	res.layer["executive.work_inflation"] = stats.Ratio(
		float64(par.compute+par.mgmt)/float64(max(par.runs, 1)),
		float64(base.compute+base.mgmt)/float64(max(base.runs, 1)))
	return res, nil
}
