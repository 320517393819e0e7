// Command rundownsim runs one discrete-event simulation of a phase chain
// or the CASPER profile under configurable scheduling policy, and prints
// utilization, makespan, the computation-to-management ratio, per-phase
// rundown windows, and optionally an ASCII Gantt chart and utilization
// sparkline.
//
// Examples:
//
//	rundownsim -mapping identity -phases 4 -granules 4096 -procs 64 -overlap
//	rundownsim -casper -procs 32 -overlap -gantt
//	rundownsim -mapping seam -granules 8192 -procs 128 -overlap -grain 16
//	rundownsim -mapping identity -granules 8192 -procs 64 -overlap -grain 1 -manager sharded
//	rundownsim -mapping identity -granules 8192 -procs 16 -overlap -grain 1 -adaptive
//	rundownsim -mapping identity -granules 8192 -procs 16 -overlap -grain 1 -manager async
//	rundownsim -mapping identity -granules 8192 -procs 32 -overlap -observe
//	rundownsim -jobs 3 -mapping identity -granules 4096 -procs 64 -overlap
//	rundownsim -jobs 2 -manager async -mapping identity -granules 4096 -procs 8 -overlap
//	rundownsim -jobs 4 -adaptive -mapping identity -granules 4096 -procs 32 -overlap
//	rundownsim -jobs 3 -mapping identity -granules 4096 -procs 32 -overlap -faults seed=7,rules=4 -retry 2
//
// The command is built on the rundown.Runner front door: one Job spec,
// one Run/RunAll call on the virtual machine, whose management model the
// manager options choose. With -jobs N (N >= 2), N copies of the
// configured workload (differing seeds) share one machine under the
// multi-tenant pool's overlap-first dispatch policy, priced in virtual
// time under every management model — the async ready buffer and the
// adaptive batch controller included. -observe streams live
// utilization/overhead snapshots to stderr, and Ctrl-C cancels the run
// through the Runner's context.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rundown "repro"
	"repro/internal/enable"
)

func main() {
	var (
		mapping    = flag.String("mapping", "identity", "mapping kind: "+mappingNames())
		phases     = flag.Int("phases", 3, "number of phases in the chain")
		granules   = flag.Int("granules", 4096, "granules per phase")
		procs      = flag.Int("procs", 32, "processor count")
		grain      = flag.Int("grain", 0, "granules per task (0 = 2 tasks/processor default)")
		overlap    = flag.Bool("overlap", false, "enable phase overlap")
		elevate    = flag.Bool("elevate", true, "elevate enabling granules for indirect mappings")
		released   = flag.Bool("released-ahead", false, "release successor work ahead of current work (PAX conflict priority)")
		presplit   = flag.Bool("presplit", false, "pre-split descriptions at activation")
		inline     = flag.Bool("inline-maps", false, "build composite maps inline (the paper's warned-about strategy)")
		dedicated  = flag.Bool("dedicated", false, "dedicated executive processor (default: steals a worker)")
		costLo     = flag.Int64("cost-lo", 100, "minimum granule cost")
		costHi     = flag.Int64("cost-hi", 400, "maximum granule cost")
		seed       = flag.Uint64("seed", 1986, "workload seed")
		jobs       = flag.Int("jobs", 1, "number of identical-shape jobs sharing the machine (>= 2 selects the multi-tenant pool)")
		casper     = flag.Bool("casper", false, "run the CASPER 22-phase census profile instead of a chain")
		cycles     = flag.Int("cycles", 1, "CASPER profile cycles")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart (small runs only)")
		curve      = flag.Bool("curve", true, "print a utilization sparkline")
		observe    = flag.Bool("observe", false, "stream live utilization/overhead snapshots to stderr while the run progresses")
		faultsIn   = flag.String("faults", "", "deterministic fault campaign: seed=N[,rules=K] (same seed, same faults, every backend)")
		retry      = flag.Int("retry", 0, "per-job retry budget for faulted attempts (multi-job runs)")
		metricsOut = flag.Bool("metrics", false, "record unified telemetry and print the run's metric dump")
		metricsAt  = flag.String("metrics-listen", "", "serve the metrics registry in Prometheus text format at this address (implies -metrics; the endpoint stays live after the run until Ctrl-C)")
		traceOut   = flag.String("trace", "", "record the run's flight-recorder trace to this file")
		replayIn   = flag.String("replay", "", "replay a recorded trace file against the configured workload and exit")
		tracediff  = flag.Bool("tracediff", false, "diff the two trace files given as positional arguments and exit")
	)
	exec := registerExec(flag.CommandLine)
	flag.Parse()

	// Ctrl-C or SIGTERM cancels the run cooperatively through the
	// Runner's context (and gracefully drains -metrics-listen).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *tracediff {
		if flag.NArg() != 2 {
			fail("-tracediff needs exactly two trace files, got %d", flag.NArg())
		}
		runTraceDiff(flag.Arg(0), flag.Arg(1))
		return
	}

	build := func(seed uint64) (*rundown.Program, error) {
		if *casper {
			return rundown.CasperProgram(rundown.CasperConfig{
				GranulesPerLine: (*granules + 1187) / 1188,
				Cycles:          *cycles,
				Cost:            rundown.UniformCost(rundown.Cost(*costLo), rundown.Cost(*costHi), seed),
				SerialCost:      100,
				Seed:            seed,
			})
		}
		kind, err := enable.ParseKind(*mapping)
		if err != nil {
			return nil, err
		}
		return rundown.Chain(kind, *phases, *granules,
			rundown.UniformCost(rundown.Cost(*costLo), rundown.Cost(*costHi), seed), seed)
	}
	prog, err := build(*seed)
	if err != nil {
		fail("%v", err)
	}

	opt := rundown.Options{
		Grain:         *grain,
		Overlap:       *overlap,
		Elevate:       *elevate,
		ReleasedAhead: *released,
		InlineMaps:    *inline,
		Costs:         rundown.DefaultCosts(),
	}
	if *presplit {
		opt.Split = rundown.SplitPre
	}
	// -retry gives every job a budget to survive -faults.
	newJob := func(name string, prog *rundown.Program) rundown.Job {
		return rundown.Job{Name: name, Prog: prog, Opt: opt, Retry: *retry, Backoff: time.Millisecond}
	}

	if *replayIn != "" {
		runReplay(*replayIn, prog, opt)
		return
	}

	execOpts, err := exec.options(*dedicated)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rundownsim: %v\n", err)
		os.Exit(2)
	}
	if *observe {
		execOpts = append(execOpts, rundown.WithObserver(printSnapshot))
	}

	// -faults: derive a reproducible campaign from the seed, shaped to
	// this run, and thread it through the Runner — the virtual backend
	// prices it deterministically, so identical flags reproduce identical
	// failures.
	if *faultsIn != "" {
		fseed, frules, err := rundown.ParseFaultFlag(*faultsIn)
		if err != nil {
			fail("%v", err)
		}
		spec := rundown.FaultScenario(fseed, frules, *jobs, *phases, *granules, *procs)
		execOpts = append(execOpts, rundown.WithFaults(spec))
		fmt.Fprintf(os.Stderr, "rundownsim: fault campaign seed=%d rules=%d\n", fseed, len(spec.Rules))
	}

	// -metrics / -metrics-listen: arm unified telemetry. The listen form
	// records into a caller-owned registry mounted at /metrics so the
	// Prometheus endpoint observes the run live and keeps serving the
	// closing totals after it — the CI smoke test curls it; Ctrl-C exits.
	showMetrics := *metricsOut || *metricsAt != ""
	waitMetrics := func() {}
	if *metricsAt != "" {
		reg := rundown.NewMetricsRegistry(*procs, "virtual")
		execOpts = append(execOpts, rundown.WithMetricsRegistry(reg))
		ln, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			fail("%v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "rundownsim: serving metrics at http://%s/metrics\n", ln.Addr())
		waitMetrics = func() {
			fmt.Fprintln(os.Stderr, "rundownsim: metrics endpoint live; Ctrl-C or SIGTERM to exit")
			<-ctx.Done()
			// Graceful drain: let an in-flight scrape finish before the
			// listener dies, bounded so a stuck client cannot hold exit.
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(shCtx); err != nil {
				_ = srv.Close()
			}
		}
	} else if *metricsOut {
		execOpts = append(execOpts, rundown.WithMetrics())
	}

	// -trace: record the run's flight recorder to a file. The writer is
	// handed to the Runner via WithTrace; closeTrace flushes it after the
	// run path completes.
	closeTrace := func() {}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		execOpts = append(execOpts, rundown.WithTrace(f))
		closeTrace = func() {
			if err := f.Close(); err != nil {
				fail("closing trace: %v", err)
			}
			fmt.Fprintf(os.Stderr, "rundownsim: trace written to %s\n", *traceOut)
		}
	}

	// -dedicated names the paper's Dedicated model, which no manager does.
	simCfg := rundown.SimConfig{Procs: *procs}
	if *dedicated {
		simCfg.Mgmt = rundown.Dedicated
	}
	execOpts = append(execOpts, rundown.WithWorkers(*procs), rundown.WithVirtualTime(simCfg))
	if *jobs >= 2 {
		runShared(ctx, build, newJob, execOpts, *jobs, *seed, showMetrics)
		closeTrace()
		waitMetrics()
		return
	}

	// The curve and the chart are views of the run's trace: record it in
	// memory unless -trace already does.
	if (*curve || *gantt) && *traceOut == "" {
		execOpts = append(execOpts, rundown.WithTrace(nil))
	}
	runner, err := rundown.New(execOpts...)
	if err != nil {
		fail("%v", err)
	}
	rep, err := runner.Run(ctx, newJob("", prog))
	if err != nil {
		fail("%v", err)
	}
	res := rep.Sim

	fmt.Printf("phases=%d granules=%d procs=%d workers=%d overlap=%v mgmt=%v\n",
		len(prog.Phases), prog.TotalGranules(), res.Procs, res.Workers, *overlap, rep.Model)
	fmt.Printf("makespan            %d\n", res.Makespan)
	fmt.Printf("compute units       %d\n", res.ComputeUnits)
	fmt.Printf("management units    %d\n", res.MgmtUnits)
	fmt.Printf("serial units        %d\n", res.SerialUnits)
	fmt.Printf("idle units          %d\n", res.IdleUnits)
	fmt.Printf("utilization         %s\n", formatPercent(res.Utilization))
	fmt.Printf("worker utilization  %s\n", formatPercent(res.WorkerUtilization))
	fmt.Printf("compute:management  %.1f\n", res.MgmtRatio)
	if exec.adaptive {
		fmt.Printf("batch (final)       %d (%d controller changes)\n", res.Batch, res.BatchChanges)
	}
	fmt.Printf("dispatches=%d splits=%d releases=%d elevations=%d deferred=%d\n",
		res.Sched.Dispatches, res.Sched.Splits, res.Sched.Releases,
		res.Sched.Elevations, res.Sched.DeferredItems)

	fmt.Println("\nper-phase:")
	for i, pt := range res.Phases {
		rd := "-"
		if pt.RundownStart >= 0 {
			rd = fmt.Sprint(pt.RundownStart)
		}
		fmt.Printf("  %2d %-24s window=[%d,%d] rundown-at=%s idle=%d overlap-fill=%d\n",
			i, pt.Name, pt.Start, pt.End, rd, pt.IdleUnits, pt.OverlapUnits)
	}

	if *curve {
		// The engine's bucket: roughly 200 across the makespan a perfect
		// spread over the computing workers would have.
		tl := rep.Trace.Timeline(res.Procs, (int64(prog.TotalCost())/int64(res.Workers)+1)/200)
		fmt.Printf("\nutilization curve (bucket=%d):\n%s\n", tl.BucketWidth(), sparkline(tl.Curve()))
	}
	if *gantt {
		fmt.Printf("\n%s", rep.Trace.Gantt(res.Procs, 100))
	}
	printMetrics(rep, showMetrics)
	closeTrace()
	waitMetrics()
}

// execFlags holds the executive-selection flags: -manager, -adaptive and
// -batch. Read them after the flag set is parsed.
type execFlags struct {
	// manager is the raw -manager value.
	manager string
	// adaptive is -adaptive: the adaptive batching controller, the
	// Adaptive model in virtual time.
	adaptive bool
	// batch is the refill batch for adaptive runs (the controller's
	// starting point) and the goroutine managers' completion batch.
	batch int

	fs *flag.FlagSet
}

// registerExec installs the executive-selection flags on fs.
func registerExec(fs *flag.FlagSet) *execFlags {
	e := &execFlags{fs: fs}
	fs.StringVar(&e.manager, "manager", "serial",
		"management layer: "+strings.Join(rundown.ExecManagerNames(), "|")+" (serial prices per -dedicated)")
	fs.BoolVar(&e.adaptive, "adaptive", false,
		"adaptive batching: worker-local buffers with the batch size retuned online (the Adaptive sim model; goroutine runs stay fixed sharded)")
	fs.IntVar(&e.batch, "batch", 0,
		"refill/completion batch size (0 = model default: 16 for the adaptive sim model — its controller starting point — and 8 for the goroutine managers)")
	return e
}

// managerSet reports whether -manager was passed explicitly.
func (e *execFlags) managerSet() bool {
	set := false
	e.fs.Visit(func(f *flag.Flag) {
		if f.Name == "manager" {
			set = true
		}
	})
	return set
}

// options resolves the parsed flags into Runner options under the
// command's conflict rules; dedicated is -dedicated (the virtual serial
// model's own-processor variant). Dedicated is a management model, not a
// manager: with dedicated set no WithManager is returned (serial is the
// Runner's default), so the caller's SimConfig.Mgmt names the model.
//
// -adaptive is its own management layer, so it conflicts with an explicit
// -manager and with -dedicated; -manager sharded runs management inline on
// the workers, so it conflicts with -dedicated; -manager async *is* the
// dedicated processor, so -dedicated is redundant and rejected. The
// -manager value parses case-insensitively, and an unknown one is an error
// that enumerates the valid names.
func (e *execFlags) options(dedicated bool) ([]rundown.Option, error) {
	if e.adaptive {
		if dedicated {
			return nil, fmt.Errorf("-dedicated conflicts with -adaptive (management runs inline on the workers)")
		}
		if e.managerSet() {
			return nil, fmt.Errorf("-manager conflicts with -adaptive (the adaptive model is its own management layer)")
		}
		return []rundown.Option{
			rundown.WithManager(rundown.ShardedManager),
			rundown.WithAdaptiveBatching(0),
			rundown.WithBatch(e.batch),
		}, nil
	}
	kind, err := rundown.ParseExecManager(e.manager)
	if err != nil {
		return nil, err
	}
	opts := []rundown.Option{rundown.WithBatch(e.batch)}
	switch kind {
	case rundown.ShardedManager:
		if dedicated {
			return nil, fmt.Errorf("-dedicated conflicts with -manager sharded (management runs inline on the workers)")
		}
	case rundown.AsyncManager:
		if dedicated {
			return nil, fmt.Errorf("-dedicated is redundant with -manager async (the async executive is the dedicated processor, extended with the ready-buffer)")
		}
	}
	if !dedicated {
		opts = append(opts, rundown.WithManager(kind))
	}
	return opts, nil
}

// printMetrics prints the run's telemetry dump when -metrics (or
// -metrics-listen) was given and the run produced one.
func printMetrics(rep *rundown.Report, show bool) {
	if show && rep != nil && rep.Metrics != nil {
		fmt.Printf("\n%s", rundown.FormatMetrics(rep.Metrics))
	}
}

// runReplay re-executes a recorded trace against the workload the flags
// describe (the program and options must match the recorded run's) and
// prints the rebuilt virtual timeline and conservation totals.
func runReplay(path string, prog *rundown.Program, opt rundown.Options) {
	tr, err := rundown.ReadTraceFile(path)
	if err != nil {
		fail("%v", err)
	}
	res, err := rundown.ReplayTrace(prog, opt, tr)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("replay of %s: backend=%s manager=%s model=%s\n",
		path, tr.Meta.Backend, tr.Meta.Manager, tr.Meta.Model)
	fmt.Printf("procs               %d\n", res.Procs)
	fmt.Printf("dispatches          %d\n", res.Dispatches)
	fmt.Printf("granules            %d\n", res.Granules)
	fmt.Printf("makespan (virtual)  %d\n", res.Makespan)
	fmt.Printf("utilization         %s\n", formatPercent(res.Utilization))
	fmt.Println("\nper-phase granules:")
	for pi, g := range res.PhaseGranules {
		fmt.Printf("  %2d %-24s %d\n", pi, prog.Phases[pi].Name, g)
	}
}

// runTraceDiff aligns two recorded traces and prints the first
// divergence, if any, plus per-phase busy/utilization deltas.
func runTraceDiff(pathA, pathB string) {
	a, err := rundown.ReadTraceFile(pathA)
	if err != nil {
		fail("%s: %v", pathA, err)
	}
	b, err := rundown.ReadTraceFile(pathB)
	if err != nil {
		fail("%s: %v", pathB, err)
	}
	d := rundown.DiffTraces(a, b)
	fmt.Printf("diff %s vs %s\n", pathA, pathB)
	d.Format(os.Stdout)
	if !d.Identical {
		os.Exit(1)
	}
}

// mappingNames lists the -mapping kinds for the usage string.
func mappingNames() string {
	var names []string
	for _, k := range enable.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}

// formatPercent renders a fraction as "97.3%".
func formatPercent(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// sparkline renders values (each clamped to [0,1]) as a unicode bar
// string, for a quick look at a utilization curve in the terminal.
func sparkline(values []float64) string {
	ramp := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range values {
		b.WriteRune(ramp[int(min(max(v, 0), 1)*float64(len(ramp)-1))])
	}
	return b.String()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rundownsim: "+format+"\n", args...)
	os.Exit(1)
}

// printSnapshot is the -observe stream: one stderr line per live
// snapshot of the virtual machine.
func printSnapshot(s rundown.Snapshot) {
	when := fmt.Sprintf("t=%d", s.VirtualTime)
	mark := ""
	if s.Final {
		mark = " (final)"
	}
	fmt.Fprintf(os.Stderr, "observe[%v] %-14s tasks=%-7d jobs=%d util=%.3f overhead=%.4f%s\n",
		s.Backend, when, s.Tasks, s.Jobs, s.Utilization, s.OverheadShare, mark)
}

// runShared runs jobs copies of the workload (differing seeds) sharing
// one virtual machine through Runner.RunAll; every management model
// prices multi-program runs.
func runShared(ctx context.Context, build func(seed uint64) (*rundown.Program, error),
	newJob func(string, *rundown.Program) rundown.Job, execOpts []rundown.Option, jobs int, seed uint64, showMetrics bool) {
	specs := make([]rundown.Job, jobs)
	for i := range specs {
		prog, err := build(seed + uint64(i))
		if err != nil {
			fail("job %d: %v", i, err)
		}
		specs[i] = newJob(fmt.Sprintf("job%d", i), prog)
	}

	virtual, err := rundown.New(execOpts...)
	if err != nil {
		fail("%v", err)
	}
	rep, err := virtual.RunAll(ctx, specs)
	if err != nil && rep == nil {
		fail("%v", err)
	}
	// A failed job under an injected campaign still has a full report:
	// print every tenant's outcome first, then exit nonzero.
	res := rep.SimMulti
	fmt.Printf("jobs=%d procs=%d workers=%d mgmt=%v\n", jobs, res.Procs, res.Workers, rep.Model)
	fmt.Printf("makespan (all jobs) %d\n", res.Makespan)
	fmt.Printf("compute units       %d\n", res.ComputeUnits)
	fmt.Printf("management units    %d\n", res.MgmtUnits)
	fmt.Printf("idle units          %d\n", res.IdleUnits)
	fmt.Printf("backfill units      %d\n", res.BackfillUnits)
	fmt.Printf("utilization         %s\n", formatPercent(res.Utilization))
	if rep.Faults > 0 || rep.Retries > 0 {
		fmt.Printf("faults injected     %d (retries %d)\n", rep.Faults, rep.Retries)
	}
	if res.Batch > 0 {
		fmt.Printf("batch (final)       %d (%d controller changes)\n", res.Batch, res.BatchChanges)
	}

	fmt.Println("\nper-job:")
	for _, j := range res.Jobs {
		share := 0.0
		if j.ComputeUnits > 0 {
			share = float64(j.BackfillUnits) / float64(j.ComputeUnits)
		}
		note := ""
		if j.Attempts > 1 {
			note = fmt.Sprintf(" attempts=%d", j.Attempts)
		}
		if j.Err != nil {
			note += fmt.Sprintf(" FAILED: %v", j.Err)
		}
		fmt.Printf("  %-8s makespan=%-10d compute=%-10d home-workers=%-3d backfill=%d (%.1f%%)%s\n",
			j.Name, j.Makespan, j.ComputeUnits, j.HomeWorkers, j.BackfillUnits, share*100, note)
	}
	printMetrics(rep, showMetrics)
	if err != nil {
		fail("%v", err)
	}
}
