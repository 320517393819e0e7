package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The layer micro-series: small fixed-size measurements of one layer at a
// time, taken from outside through the same public entry points the
// workloads use. They run only in the traced run. Each is a median of a
// few repetitions of a deterministic amount of work.

const microReps = 5

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// driveCore runs a program through the scheduler state machine alone, on
// one goroutine with no work executed: dispatch a batch, complete it,
// until done. It returns the task count.
func driveCore(prog *rundown.Program, opt rundown.Options) (int64, error) {
	s, err := core.New(prog, opt)
	if err != nil {
		return 0, err
	}
	s.Start()
	buf := make([]core.Task, 0, 16)
	for !s.Done() {
		ts, _ := s.NextTasks(buf[:0], cap(buf))
		if len(ts) == 0 {
			return 0, fmt.Errorf("core: scheduler stalled in phase %d", s.CurrentPhase())
		}
		s.CompleteBatch(ts)
	}
	return s.Stats().Dispatches, nil
}

func layerSeries(cfg runCfg, rec *recorder, res *result) error {
	steps := []struct {
		name string
		fn   func(runCfg, *result) error
	}{
		{"core", coreSeries},
		{"enable", enableSeries},
		{"workload", workloadSeries},
		{"tenant", tenantSeries},
		{"service", serviceSeries},
		{"executive+trace+telemetry+fault", overheadSeries},
	}
	for _, st := range steps {
		var err error
		rec.time(0, 0, "layers."+st.name, func() { err = st.fn(cfg, res) })
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return nil
}

// coreSeries: the state machine's cost per task over the exec-fine
// program, and the cost of constructing a scheduler for a svc-small job.
func coreSeries(cfg runCfg, res *result) error {
	fine, err := newFineProgram()
	if err != nil {
		return err
	}
	var tasks int64
	d, err := timeMedian(microReps, func() error {
		tasks, err = driveCore(fine.prog, fineOptions(fineGrains[0]))
		return err
	})
	if err != nil {
		return err
	}
	res.layer["core.sched_ns_per_task"] = stats.Ratio(float64(d), float64(tasks))
	res.layer["core.tasks_per_job"] = float64(tasks)

	var news []float64
	for i, shape := range smallShapes() {
		js := shape(cfg.seed + uint64(i))
		prog, opt, err := buildLikeService(js)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := core.New(prog, opt); err != nil {
			return err
		}
		news = append(news, us(time.Since(start)))
	}
	res.layerPct("core.new_us", news, 50)
	return nil
}

// buildLikeService materializes a generated spec the way the service's
// submit handler does, through the same public builders.
func buildLikeService(js jobSpec) (*rundown.Program, rundown.Options, error) {
	w := js.spec.Workload
	kind, err := rundown.ParseMappingKind(w.Mapping)
	if err != nil {
		return nil, rundown.Options{}, err
	}
	prog, err := rundown.Chain(kind, w.Phases, w.Granules, rundown.UniformCost(1, 1, w.Seed), w.Seed)
	return prog, rundown.Options{Grain: js.spec.Grain, Overlap: true}, err
}

// enableSeries: completion processing per granule for each mapping kind
// (a two-phase chain driven through core, so the enablement table is
// nearly all the work), and the cost of building a reverse-indirect
// composite map inline at phase initiation.
func enableSeries(cfg runCfg, res *result) error {
	const n = 16384
	for _, name := range enableKinds {
		kind, err := rundown.ParseMappingKind(name)
		if err != nil {
			return err
		}
		prog, err := rundown.Chain(kind, 2, n, rundown.UnitCost(), cfg.seed)
		if err != nil {
			return err
		}
		d, err := timeMedian(microReps, func() error {
			_, err := driveCore(prog, rundown.Options{Grain: 8, Overlap: true})
			return err
		})
		if err != nil {
			return err
		}
		res.layer["enable.complete_ns_per_granule."+name] = float64(d) / (2 * n)
	}
	prog, err := rundown.Chain(rundown.KindReverse, 2, n, rundown.UnitCost(), cfg.seed)
	if err != nil {
		return err
	}
	d, err := timeMedian(microReps, func() error {
		s, err := core.New(prog, rundown.Options{Grain: 8, Overlap: true, InlineMaps: true})
		if err == nil {
			s.Start()
		}
		return err
	})
	res.layer["enable.build_us.reverse-indirect"] = us(d)
	return err
}

// workloadSeries: what the program builders cost per request.
func workloadSeries(cfg runCfg, res *result) error {
	var builds []float64
	for i, shape := range smallShapes() {
		js := shape(cfg.seed + uint64(i))
		start := time.Now()
		if _, _, err := buildLikeService(js); err != nil {
			return err
		}
		builds = append(builds, us(time.Since(start)))
	}
	res.layerPct("workload.chain_build_us_p50", builds, 50)
	d, err := timeMedian(4*microReps, func() error {
		_, err := rundown.CasperProgram(rundown.CasperConfig{Cycles: 2, Seed: cfg.seed, Cost: rundown.UniformCost(1, 1, cfg.seed)})
		return err
	})
	res.layer["workload.casper_build_us"] = us(d)
	return err
}

// tenantSeries: Pool.Submit on its own, with no HTTP in front of it.
func tenantSeries(cfg runCfg, res *result) error {
	r, err := rundown.New(rundown.WithWorkers(cfg.nproc), rundown.WithPool())
	if err != nil {
		return err
	}
	pool, err := r.StartPool()
	if err != nil {
		return err
	}
	prog, err := rundown.Chain(rundown.KindIdentity, 2, 64, rundown.UnitCost(), cfg.seed)
	if err != nil {
		return err
	}
	var submits []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		job, err := pool.Submit(prog, rundown.Options{Grain: 16, Overlap: true}, rundown.PoolJobConfig{})
		submits = append(submits, us(time.Since(start)))
		if err != nil {
			pool.Close()
			return err
		}
		if _, err := job.Wait(); err != nil {
			pool.Close()
			return err
		}
	}
	res.layerPct("tenant.submit_us_p50", submits, 50)
	_, err = pool.Close()
	return err
}

// serviceSeries: decode and validate alone — a spec the handler refuses
// with 400 before any program is built — against the handler directly,
// with no network.
func serviceSeries(cfg runCfg, res *result) error {
	srv, err := service.New(service.Config{Workers: cfg.nproc})
	if err != nil {
		return err
	}
	const body = `{"name":"reject","workload":{"kind":"chain","mapping":"identity","phases":4,"granules":512,"work_us":99999},"grain":32,"class":"batch"}`
	var rejects []float64
	for i := 0; i < 300; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		srv.Handler().ServeHTTP(w, req)
		rejects = append(rejects, us(time.Since(start)))
		if w.Code != http.StatusBadRequest {
			srv.Shutdown(context.Background())
			return fmt.Errorf("invalid spec answered %d, want 400", w.Code)
		}
	}
	res.layerPct("service.reject_400_us_p50", rejects, 50)
	return srv.Shutdown(context.Background())
}

// overheadSeries: what arming the flight recorder, the metrics registry
// and a fault plan that never matches costs the executive, over the plain
// sharded run of the exec-fine program; and, from the recorded trace and
// registry those runs leave, the trace format's and the exposition's own
// speeds.
func overheadSeries(cfg runCfg, res *result) error {
	fine, err := newFineProgram()
	if err != nil {
		return err
	}
	opt := fineOptions(fineGrains[0])
	reg := rundown.NewMetricsRegistry(cfg.nproc, "ns")
	// A rule scoped to a job index a single-job run never has: the plan is
	// armed and consulted at every chokepoint, and never fires.
	never := rundown.FaultSpec{Rules: []rundown.FaultRule{{Kind: rundown.FaultGrainError, Job: 1 << 20, Phase: -1, Worker: -1}}}
	variants := []struct {
		name  string
		extra []rundown.Option
	}{
		{"plain", nil},
		{"trace", []rundown.Option{rundown.WithTrace(nil)}},
		{"telemetry", []rundown.Option{rundown.WithMetricsRegistry(reg)}},
		{"fault", []rundown.Option{rundown.WithFaults(never)}},
	}
	walls := map[string][]float64{}
	var traced *rundown.Trace
	for i := 0; i < microReps; i++ {
		for _, v := range variants {
			r, err := rundown.New(append(managerOptions("sharded", cfg.nproc), v.extra...)...)
			if err != nil {
				return err
			}
			// Collect the previous variant's garbage (a trace is a hundred
			// thousand events) before timing this one.
			runtime.GC()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			rep, err := r.Run(ctx, rundown.Job{Prog: fine.prog, Opt: opt})
			cancel()
			if err == nil {
				err = fine.check()
			}
			if err != nil {
				return fmt.Errorf("%s run: %w", v.name, err)
			}
			walls[v.name] = append(walls[v.name], float64(rep.Wall))
			if rep.Trace != nil {
				traced = rep.Trace
			}
			if rep.Faults != 0 {
				return fmt.Errorf("the never-matching fault plan fired %d times", rep.Faults)
			}
		}
	}
	plain := median(walls["plain"])
	for name, key := range map[string]string{"trace": "trace.overhead_pct", "telemetry": "telemetry.overhead_pct", "fault": "fault.armed_overhead_pct"} {
		res.layer[key] = 100 * stats.Ratio(median(walls[name])-plain, plain)
	}

	dump := reg.Dump()
	attempts, wins := dump.Get("rundown_steal_attempt_total"), dump.Get("rundown_steal_win_total")
	if attempts == nil || wins == nil {
		return fmt.Errorf("steal counters missing from the registry dump")
	}
	res.layer["executive.steal_win_share"] = stats.Ratio(float64(wins.Value), float64(attempts.Value))
	d, err := timeMedian(10*microReps, func() error {
		w := httptest.NewRecorder()
		reg.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if w.Code != http.StatusOK {
			return fmt.Errorf("registry handler answered %d", w.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.layer["telemetry.write_prom_us"] = us(d)

	res.layer["trace.events_per_job"] = float64(traced.Len())
	var file bytes.Buffer
	d, err = timeMedian(microReps, func() error {
		file.Reset()
		return trace.Write(&file, traced)
	})
	if err != nil {
		return err
	}
	mb := float64(file.Len()) / 1e6
	res.layer["trace.write_mb_per_s"] = stats.Ratio(mb, d.Seconds())
	d, err = timeMedian(microReps, func() error {
		back, err := trace.Read(bytes.NewReader(file.Bytes()))
		if err == nil && back.Len() != traced.Len() {
			err = fmt.Errorf("trace read back %d events of %d", back.Len(), traced.Len())
		}
		return err
	})
	if err != nil {
		return err
	}
	res.layer["trace.read_mb_per_s"] = stats.Ratio(mb, d.Seconds())
	d, err = timeMedian(microReps, func() error {
		_, err := rundown.ReplayTrace(fine.prog, opt, traced)
		return err
	})
	res.layer["trace.replay_ms"] = ms(d)
	return err
}
