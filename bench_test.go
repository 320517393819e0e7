package rundown_test

// One benchmark per experiment E1..E8 (see DESIGN.md's experiment index):
// each runs
// the experiment at Quick scale and reports its headline metric so `go test
// -bench=. -benchmem` regenerates the shape of every quantitative claim in
// the paper. cmd/experiments prints the full tables; EXPERIMENTS.md records
// the Full-scale numbers.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	rundown "repro"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
)

func benchExperiment(b *testing.B, id string, metric func(t *experiments.Table) (string, float64)) {
	var spec experiments.Spec
	for _, s := range experiments.All() {
		if s.ID == id {
			spec = s
		}
	}
	if spec.Run == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = spec.Run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil && tbl != nil {
		name, v := metric(tbl)
		b.ReportMetric(v, name)
	}
}

func cellF(tbl *experiments.Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "%"), 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkE1MappingCensus regenerates the PAX/CASPER enablement-mapping
// census (6/9/4/2/1 phases; 266/551/262/78/31 lines; 68% simply
// overlappable) and the footprint-based pipeline classification.
func BenchmarkE1MappingCensus(b *testing.B) {
	benchExperiment(b, "E1", func(t *experiments.Table) (string, float64) {
		return "universal-phases", cellF(t, 0, 1)
	})
}

// BenchmarkE2CheckerboardRundown regenerates the paper's worked rundown
// example (524 computations/processor, 288 left over, 712 idle) and the
// seam-mapping recovery.
func BenchmarkE2CheckerboardRundown(b *testing.B) {
	benchExperiment(b, "E2", func(t *experiments.Table) (string, float64) {
		return "barrier-utilization", cellF(t, 0, 7)
	})
}

// BenchmarkE3MappingSweep regenerates the rundown-recovery-by-mapping-kind
// sweep (universal/identity best, indirect at executive cost, null zero).
func BenchmarkE3MappingSweep(b *testing.B) {
	benchExperiment(b, "E3", func(t *experiments.Table) (string, float64) {
		return "universal-gain-%", cellF(t, 1, 3)
	})
}

// BenchmarkE4TaskRatio regenerates the paper's two-tasks-per-processor
// outset condition.
func BenchmarkE4TaskRatio(b *testing.B) {
	benchExperiment(b, "E4", func(t *experiments.Table) (string, float64) {
		return "util-at-2-tasks", cellF(t, 1, 3)
	})
}

// BenchmarkE5MgmtRatio regenerates the computation-to-management ratio
// sweep (the paper's "neighborhood of 200").
func BenchmarkE5MgmtRatio(b *testing.B) {
	benchExperiment(b, "E5", func(t *experiments.Table) (string, float64) {
		return "coarse-grain-ratio", cellF(t, len(t.Rows)-1, 4)
	})
}

// BenchmarkE6SplitPolicies regenerates the executive control-strategy
// comparison (demand/inline vs deferred vs presplit vs released-ahead).
func BenchmarkE6SplitPolicies(b *testing.B) {
	benchExperiment(b, "E6", func(t *experiments.Table) (string, float64) {
		return "presplit-utilization", cellF(t, 3, 2)
	})
}

// BenchmarkE7CompositeMapCost regenerates the composite-map-cost study
// (inline self-defeat vs deferred+cancel bounded loss).
func BenchmarkE7CompositeMapCost(b *testing.B) {
	benchExperiment(b, "E7", func(t *experiments.Table) (string, float64) {
		return "deferred-best-gain-%", cellF(t, 4, 5)
	})
}

// BenchmarkE8EndToEnd regenerates the end-to-end CASPER-profile
// barrier-vs-overlap comparison.
func BenchmarkE8EndToEnd(b *testing.B) {
	benchExperiment(b, "E8", func(t *experiments.Table) (string, float64) {
		return "gain-%-at-8-procs", cellF(t, 0, 3)
	})
}

// BenchmarkExecutiveSORSweep measures the real goroutine executive on the
// red/black SOR workload with seam overlap (wall-clock, not virtual time).
func BenchmarkExecutiveSORSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := rundown.NewGrid(96, 1.3, rundown.HotEdgeBoundary(96))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := g.SORProgram(4, true)
		if err != nil {
			b.Fatal(err)
		}
		runExec(b, prog, rundown.Options{
			Grain: 256, Overlap: true, Costs: rundown.DefaultCosts(),
		}, rundown.WithWorkers(8))
	}
}

// The simulator series drive the virtual backend the way a caller does —
// rundown.New(WithVirtualTime(cfg)) then Run or RunAll — so they time the
// same path the sim-scale benchmark workload does.

// simChain is the 4×16384 unit-cost identity chain at grain 64: the
// one-job program of the simulator series.
func simChain(b *testing.B) rundown.Job {
	b.Helper()
	prog, err := rundown.Chain(rundown.KindIdentity, 4, 16384, rundown.UnitCost(), 5)
	if err != nil {
		b.Fatal(err)
	}
	return rundown.Job{Prog: prog, Opt: rundown.Options{Grain: 64, Overlap: true, Costs: rundown.DefaultCosts()}}
}

// simTenants builds n co-tenant unit-cost identity chains with mixed
// priorities and weights, so the backfill order and deficit machinery are
// on the hot path.
func simTenants(b *testing.B, n, phases, grain, prios, weights int, granules func(i int) int) []rundown.Job {
	b.Helper()
	jobs := make([]rundown.Job, n)
	for i := range jobs {
		prog, err := rundown.Chain(rundown.KindIdentity, phases, granules(i), rundown.UnitCost(), uint64(5+i))
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = rundown.Job{
			Name: "job" + strconv.Itoa(i), Prog: prog,
			Opt:      rundown.Options{Grain: grain, Overlap: true, Costs: rundown.DefaultCosts()},
			Priority: i % prios, Weight: 1 + i%weights,
		}
	}
	return jobs
}

// benchSim runs jobs on a fresh virtual Runner per iteration — through
// RunAll when multi is set, else the first job through Run (the one-job
// path, which also records the phase traces' timeline) — and reports
// simulated granules per host second.
func benchSim(b *testing.B, cfg rundown.SimConfig, multi bool, jobs ...rundown.Job) {
	var granules int64
	for _, j := range jobs {
		granules += int64(j.Prog.TotalGranules())
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := rundown.New(rundown.WithVirtualTime(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if multi {
			_, err = r.RunAll(ctx, jobs)
		} else {
			_, err = r.Run(ctx, jobs[0])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(granules)*float64(b.N)/b.Elapsed().Seconds(), "granules/sec")
}

var simModelSeries = []struct {
	name  string
	model rundown.MgmtModel
}{
	{"steals-worker", rundown.StealsWorker}, {"dedicated", rundown.Dedicated},
	{"sharded", rundown.ShardedMgmt}, {"adaptive", rundown.AdaptiveMgmt}, {"async", rundown.AsyncMgmt},
}

// BenchmarkSimulatorThroughput measures discrete-event simulator speed on a
// large identity chain (events per second drive all experiment runtimes).
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchSim(b, rundown.SimConfig{Procs: 64, Mgmt: rundown.StealsWorker}, false, simChain(b))
}

// BenchmarkSimulatorOneJob is the one-job path under every management
// model: the chain through Run. CI caps the sharded series' allocs/op, so
// a per-event allocation in the phase or timeline recorders fails on a
// count.
func BenchmarkSimulatorOneJob(b *testing.B) {
	job := simChain(b)
	for _, m := range simModelSeries {
		cfg := rundown.SimConfig{Procs: 64, Mgmt: m.model}
		b.Run(m.name, func(b *testing.B) { benchSim(b, cfg, false, job) })
	}
}

// BenchmarkSimulatorThroughputMulti measures the discrete-event engine
// under co-tenancy: 8 co-tenant identity-chain jobs (mixed sizes,
// priorities and weights) sharing a 64-processor machine. Reports
// granules/sec of simulated work and allocs/op; CI caps the latter.
func BenchmarkSimulatorThroughputMulti(b *testing.B) {
	jobs := simTenants(b, 8, 3, 8, 2, 3, func(i int) int { return 8192 + 2048*i })
	benchSim(b, rundown.SimConfig{Procs: 64, Mgmt: rundown.ShardedMgmt}, true, jobs...)
}

// BenchmarkSimulatorMultiModels is the sim-scale workload's mixed tenancy
// (8 jobs, 2048+512i granules per phase, grain 8, P=64) under every
// management model.
func BenchmarkSimulatorMultiModels(b *testing.B) {
	jobs := simTenants(b, 8, 3, 8, 2, 3, func(i int) int { return 2048 + 512*i })
	for _, m := range simModelSeries {
		cfg := rundown.SimConfig{Procs: 64, Mgmt: m.model}
		b.Run(m.name, func(b *testing.B) { benchSim(b, cfg, true, jobs...) })
	}
}

// BenchmarkSimulatorScaleMillion is the scale lab's acceptance workload:
// one million granules spread over 32 co-tenant jobs on a 1024-worker
// machine — the co-tenancy scale no CI host can run on real goroutines.
func BenchmarkSimulatorScaleMillion(b *testing.B) {
	jobs := simTenants(b, 32, 4, 4, 3, 2, func(int) int { return 1_000_000 / (4 * 32) })
	benchSim(b, rundown.SimConfig{Procs: 1024, Mgmt: rundown.ShardedMgmt}, true, jobs...)
}

// BenchmarkE9JobStreams regenerates the introduction's batching-vs-overlap
// trade-off (batch raises utilization but lengthens each job).
func BenchmarkE9JobStreams(b *testing.B) {
	benchExperiment(b, "E9", func(t *experiments.Table) (string, float64) {
		return "overlap-utilization", cellF(t, 2, 4)
	})
}

// Manager head-to-head benchmarks: the serial manager (the paper's one
// global executive lock) against the sharded manager (per-worker deques,
// batched completion submission, work stealing) on real goroutine workers
// across the three workload families. Each benchmark reports utilization
// and the computation-to-management ratio; the structural claim is the
// utilization gap at fine grain, where per-task serialization dominates
// the serial manager.

// managerBenchOptions is the common 8-worker setup of the comparison.
func managerBenchOptions(kind rundown.ExecManager) []rundown.Option {
	return []rundown.Option{
		rundown.WithWorkers(8), rundown.WithManager(kind),
		rundown.WithDequeCap(32), rundown.WithBatch(16),
	}
}

// benchManager runs build's program per iteration on one Runner under
// kind (plus extra options) and reports median utilization and
// computation-to-management ratio.
func benchManager(b *testing.B, kind rundown.ExecManager,
	build func(b *testing.B) (*rundown.Program, rundown.Options), extra ...rundown.Option) {
	runner, err := rundown.New(append(managerBenchOptions(kind), extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	var utils, ratios []float64
	for i := 0; i < b.N; i++ {
		prog, opt := build(b)
		rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
		if err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
		ratios = append(ratios, rep.MgmtRatio)
	}
	// Medians, not means: on an oversubscribed host an OS preemption that
	// lands inside a tiny work window inflates that iteration's measured
	// compute by the whole descheduled period, so means are dominated by
	// rare outliers.
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	b.ReportMetric(stats.Percentile(ratios, 50), "compute:mgmt")
}

// buildChainFine is the acceptance workload: a fine-grain identity chain
// whose tiny tasks make management the bottleneck. The sharded manager
// must show at least 1.5x the serial manager's utilization here.
func buildChainFine(b *testing.B) (*rundown.Program, rundown.Options) {
	n := 1 << 15
	a := make([]int64, n)
	c := make([]int64, n)
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name: "fill", Granules: n,
			Work:   func(g rundown.GranuleID) { a[g] = int64(g) * 3 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "scale", Granules: n,
			Work:   func(g rundown.GranuleID) { c[g] = a[g] + 1 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "sum", Granules: n,
			Work: func(g rundown.GranuleID) { a[g] = c[g] ^ a[g] },
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	// Grain 1 is the finest possible tasking: per-task management is at
	// its maximum relative to compute. Identity enablement runs through
	// the counter table (scheduling results are identical to the
	// conflict-queue mechanism; see core.IdentityMode), which lets the
	// batch paths coalesce completions and releases.
	return prog, rundown.Options{
		Grain: 1, Overlap: true, IdentityVia: rundown.IdentityTable,
		Costs: rundown.DefaultCosts(),
	}
}

func buildCasperPipeline(b *testing.B) (*rundown.Program, rundown.Options) {
	p, err := rundown.NewPipeline(1 << 14)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.Program()
	if err != nil {
		b.Fatal(err)
	}
	return prog, rundown.Options{Grain: 64, Overlap: true, Elevate: true, Costs: rundown.DefaultCosts()}
}

func buildCheckerboard(b *testing.B) (*rundown.Program, rundown.Options) {
	g, err := rundown.NewGrid(96, 1.3, rundown.HotEdgeBoundary(96))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := g.SORProgram(4, true)
	if err != nil {
		b.Fatal(err)
	}
	return prog, rundown.Options{Grain: 64, Overlap: true, Costs: rundown.DefaultCosts()}
}

// Pool benchmarks: the multi-tenant worker pool (internal/tenant) layered
// above the managers. The single-job pool against the executive is the
// tenancy-layer overhead; the two-job pool reports how much of the
// machine cross-job backfill recovers; the virtual-time pool prices the
// dispatch policy deterministically (no wall-clock noise).

// BenchmarkPoolSingleJobSharded runs the fine-grain chain through a
// single-job pool — compare against BenchmarkManagerChainFineSharded to
// see what the tenancy layer costs when tenancy is not used.
func BenchmarkPoolSingleJobSharded(b *testing.B) {
	runner, err := rundown.New(managerBenchOptions(rundown.ShardedManager)...)
	if err != nil {
		b.Fatal(err)
	}
	var utils []float64
	for i := 0; i < b.N; i++ {
		prog, opt := buildChainFine(b)
		p, err := runner.StartPool()
		if err != nil {
			b.Fatal(err)
		}
		job, err := p.Submit(prog, opt, rundown.PoolJobConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := job.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Close(); err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
	}
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
}

// BenchmarkPoolTwoJobsSharded runs two jobs concurrently on one pool:
// the fine-grain chain beside the CASPER pipeline, mixed sizes on
// purpose. Reports pool utilization and the backfill share of compute.
func BenchmarkPoolTwoJobsSharded(b *testing.B) {
	runner, err := rundown.New(managerBenchOptions(rundown.ShardedManager)...)
	if err != nil {
		b.Fatal(err)
	}
	var utils, backfill []float64
	for i := 0; i < b.N; i++ {
		p, err := runner.StartPool()
		if err != nil {
			b.Fatal(err)
		}
		chainProg, chainOpt := buildChainFine(b)
		casperProg, casperOpt := buildCasperPipeline(b)
		chainJob, err := p.Submit(chainProg, chainOpt, rundown.PoolJobConfig{Name: "chain"})
		if err != nil {
			b.Fatal(err)
		}
		casperJob, err := p.Submit(casperProg, casperOpt, rundown.PoolJobConfig{Name: "casper"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chainJob.Wait(); err != nil {
			b.Fatal(err)
		}
		if _, err := casperJob.Wait(); err != nil {
			b.Fatal(err)
		}
		rep, err := p.Close()
		if err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
		backfill = append(backfill, rep.BackfillShare)
	}
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	b.ReportMetric(stats.Percentile(backfill, 50)*100, "backfill-%")
}

// BenchmarkOneJob is the bench module's exec-fine run as a go test series
// (DESIGN.md §4.4 keeps its history): the 3×32768 identity chain at grains
// 2 and 8 under each manager, GOMAXPROCS workers, through Run — a one-job
// run of the one wall-clock worker loop. ns/op and allocs/op per cell.
func BenchmarkOneJob(b *testing.B) {
	managers := []struct {
		name string
		opts []rundown.Option
	}{
		{"serial", []rundown.Option{rundown.WithManager(rundown.SerialManager)}},
		{"sharded", []rundown.Option{rundown.WithManager(rundown.ShardedManager),
			rundown.WithDequeCap(32), rundown.WithBatch(16)}},
		{"async", []rundown.Option{rundown.WithManager(rundown.AsyncManager)}},
	}
	prog, opt := buildChainFine(b)
	for _, m := range managers {
		for _, grain := range []int{2, 8} {
			b.Run(m.name+"/g"+strconv.Itoa(grain), func(b *testing.B) {
				runner, err := rundown.New(m.opts...)
				if err != nil {
					b.Fatal(err)
				}
				job := rundown.Job{Prog: prog, Opt: opt}
				job.Opt.Grain = grain
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := runner.Run(context.Background(), job); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPoolMultiSim prices the tenancy dispatch policy in virtual
// time (the E11 configuration at quick scale): deterministic, so the
// reported utilization is exact rather than host-dependent.
func BenchmarkPoolMultiSim(b *testing.B) {
	benchExperiment(b, "E11", func(t *experiments.Table) (string, float64) {
		return "pool-utilization", cellF(t, 3, 4)
	})
}

func BenchmarkManagerChainFineSerial(b *testing.B) {
	benchManager(b, rundown.SerialManager, buildChainFine)
}

func BenchmarkManagerChainFineSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildChainFine)
}

// BenchmarkManagerChainFineShardedFaultsOff is the injection-off control:
// the same workload and manager as BenchmarkManagerChainFineSharded, run
// through the fault-aware configuration with an empty campaign (zero
// rules compile to no plan at all). It pins the claim that fault
// injection off costs one nil check per task — this series must sit
// within noise of the plain sharded series above.
func BenchmarkManagerChainFineShardedFaultsOff(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildChainFine, rundown.WithFaults(rundown.FaultSpec{}))
}

// BenchmarkManagerChainFineAsync / BenchmarkManagerCasperAsync are the
// async pair of the manager comparison: the dedicated-management-
// goroutine executive on the same workloads as the serial and sharded
// series, so one run carries all three architectures side by side.
func BenchmarkManagerChainFineAsync(b *testing.B) {
	benchManager(b, rundown.AsyncManager, buildChainFine)
}

func BenchmarkManagerCasperAsync(b *testing.B) {
	benchManager(b, rundown.AsyncManager, buildCasperPipeline)
}

func BenchmarkManagerCheckerboardAsync(b *testing.B) {
	benchManager(b, rundown.AsyncManager, buildCheckerboard)
}

// BenchmarkRunnerChainFineSharded is BenchmarkManagerChainFineSharded
// under the name CI's bench-smoke requires: with the Runner the only
// entry point, the two series are one.
func BenchmarkRunnerChainFineSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildChainFine)
}

// BenchmarkTraceRecordChainFine measures what the flight recorder costs
// on the hottest dispatch path: the fine-grain chain under the sharded
// manager (8 workers, one trace record per dispatch and per completion),
// traced versus untraced. The "off" variant doubles as the tracing-off
// fast-path guard — it runs the same Runner code with the recorder nil,
// and must stay within noise of BenchmarkManagerChainFineSharded.
func BenchmarkTraceRecordChainFine(b *testing.B) {
	run := func(b *testing.B, opts ...rundown.Option) {
		runner, err := rundown.New(append([]rundown.Option{
			rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
			rundown.WithDequeCap(32), rundown.WithBatch(16),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		var events []float64
		for i := 0; i < b.N; i++ {
			prog, opt := buildChainFine(b)
			rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Trace != nil {
				events = append(events, float64(rep.Trace.Len()))
			}
		}
		if len(events) > 0 {
			b.ReportMetric(stats.Percentile(events, 50), "events")
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) { run(b, rundown.WithTrace(nil)) })
}

// BenchmarkTraceDownload prices one job's trace download from a
// long-lived pool's recorder (PoolJob.Trace, the read behind the daemon's
// GET /v1/jobs/{id}/trace) against how much the recorder saw before the
// job: nothing, or a million events. events_visited/op is the read's
// cost in a unit that repeats on any host — the events inside the job's
// extent, 2 per task plus lifecycle and park records, whatever the
// history — so internal/trace's TestTakeJobVisitsOnlyTheExtent caps it
// and a read side that scans the recorder's whole life again fails on a
// count, not a timing.
func BenchmarkTraceDownload(b *testing.B) {
	const workers = 4
	for _, h := range []struct {
		name   string
		events int
	}{{"0", 0}, {"1M", 1 << 20}} {
		b.Run("history="+h.name, func(b *testing.B) {
			rec := rundown.NewTraceRecorder(workers)
			// Prior traffic goes in before the pool's workers own the rings.
			for i := 0; i < h.events; i++ {
				rec.Ring(i%workers).Record(trace.KComplete, int64(i), int32(i%workers), -1, 0, 0, 1, 1)
			}
			runner, err := rundown.New(rundown.WithWorkers(workers), rundown.WithPool(),
				rundown.WithTraceRecorder(rec))
			if err != nil {
				b.Fatal(err)
			}
			pool, err := runner.StartPool()
			if err != nil {
				b.Fatal(err)
			}
			prog, err := rundown.Chain(rundown.KindIdentity, 2, 256, rundown.UnitCost(), 1)
			if err != nil {
				b.Fatal(err)
			}
			job, err := pool.Submit(prog, rundown.Options{Grain: 1, Overlap: true}, rundown.PoolJobConfig{Name: "probe"})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := job.Wait(); err != nil {
				b.Fatal(err)
			}
			before := rec.Visited()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := job.Trace()
				if err != nil {
					b.Fatal(err)
				}
				if got := tr.Granules(); got != 2*256 {
					b.Fatalf("downloaded trace completes %d granules, the job ran %d", got, 2*256)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rec.Visited()-before)/float64(b.N), "events_visited/op")
			if _, err := pool.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMetricsChainFine measures what unified telemetry costs on the
// hottest dispatch path: the fine-grain chain under the sharded manager,
// metered versus unmetered. Recording is per-worker sharded counters plus
// one histogram observation per dispatch (the fine path adds one clock
// read), so the "on" series must sit within noise of "off" — the
// metrics-off fast-path guard, the telemetry analogue of
// BenchmarkTraceRecordChainFine.
func BenchmarkMetricsChainFine(b *testing.B) {
	run := func(b *testing.B, opts ...rundown.Option) {
		runner, err := rundown.New(append([]rundown.Option{
			rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
			rundown.WithDequeCap(32), rundown.WithBatch(16),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		var utils []float64
		for i := 0; i < b.N; i++ {
			prog, opt := buildChainFine(b)
			rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
			if err != nil {
				b.Fatal(err)
			}
			utils = append(utils, rep.Utilization)
			if rep.Metrics != nil && i == 0 {
				if d := rep.Metrics.Get("rundown_dispatch_total"); d != nil {
					b.ReportMetric(float64(d.Value), "dispatches")
				}
			}
		}
		b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) { run(b, rundown.WithMetrics()) })
}

func BenchmarkManagerCasperSerial(b *testing.B) {
	benchManager(b, rundown.SerialManager, buildCasperPipeline)
}

func BenchmarkManagerCasperSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildCasperPipeline)
}

func BenchmarkManagerCheckerboardSerial(b *testing.B) {
	benchManager(b, rundown.SerialManager, buildCheckerboard)
}

func BenchmarkManagerCheckerboardSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildCheckerboard)
}
