package main

// The names, units and directions here are the benchmark's contract;
// BENCHMARK.json at the repository root repeats them (a test keeps the
// two in step), and bench/README.md says what each one means.

type def struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

var workloadNames = []string{"svc-small", "svc-cotenant", "exec-fine", "sim-scale"}

// The bounds come from the spread of ten runs on ten seeds on the 2-core
// reference host (IQR over median), times three, capped at the contract's
// 25 %. On exec-fine and sim-scale the four timing metrics are reported at
// reference host speed (calib.go), which brings their spread on a quiet host
// to 3–7 %; the host still has spells that calibration only half corrects,
// so every wall-clock metric sits at the cap. So does utilization: on
// exec-fine it is a ratio of two sums of very short clock intervals and
// spreads over 7 %. allocs_per_job spreads over 6 % on svc-cotenant, where
// the count follows how many snapshots and scrapes a job's duration admits.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"job_latency_p50_ms", "ms", "lower", 0.25},
	{"job_latency_p90_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"granules_per_s", "1/s", "higher", 0.25},
	{"utilization", "ratio", "higher", 0.25},
	{"allocs_per_job", "count", "lower", 0.20},
}

// exact lists the end-to-end metrics that come off the virtual clock and
// must repeat bit for bit on one seed; -selfcheck compares them with ==.
var exact = map[string][]string{"sim-scale": {"utilization"}}

var managerNames = []string{"serial", "sharded", "adaptive", "async"}
var modelNames = []string{"steals-worker", "dedicated", "sharded", "adaptive", "async"}
var enableKinds = []string{"identity", "universal", "seam", "reverse-indirect"}

var perLayer = buildPerLayer()

func buildPerLayer() []def {
	d := []def{
		// service
		{name: "service.submit_ms_p50", unit: "ms", better: "lower"},
		{name: "service.submit_ms_p90", unit: "ms", better: "lower"},
		{name: "service.final_lag_ms_p50", unit: "ms", better: "lower"},
		{name: "service.reject_400_us_p50", unit: "us", better: "lower"},
		{name: "service.status_us_p50", unit: "us", better: "lower"},
		{name: "service.metrics_scrape_ms_p50", unit: "ms", better: "lower"},
		{name: "service.trace_download_ms_p50", unit: "ms", better: "lower"},
		{name: "service.sse_events_per_job", unit: "count", better: "lower"},
		{name: "service.sse_missing_final", unit: "count", better: "lower"},
		// tenant
		{name: "tenant.queue_wait_ms_p50", unit: "ms", better: "lower"},
		{name: "tenant.run_ms_p50", unit: "ms", better: "lower"},
		{name: "tenant.submit_us_p50", unit: "us", better: "lower"},
		{name: "tenant.dispatch_wait_us_p99", unit: "us", better: "lower"},
		{name: "tenant.backfill_share", unit: "ratio", better: "higher"},
		{name: "tenant.mgmt_share", unit: "ratio", better: "lower"},
		{name: "tenant.idle_share", unit: "ratio", better: "lower"},
		{name: "tenant.retries", unit: "count", better: "lower"},
		{name: "tenant.stalled", unit: "count", better: "lower"},
		// executive
		{name: "executive.steal_win_share", unit: "ratio", better: "higher"},
		{name: "executive.speedup", unit: "ratio", better: "higher"},
		{name: "executive.alpha_eff", unit: "ratio", better: "higher"},
		{name: "executive.work_inflation", unit: "ratio", better: "lower"},
		// core / enable / workload
		{name: "core.sched_ns_per_task", unit: "ns", better: "lower"},
		{name: "core.new_us", unit: "us", better: "lower"},
		{name: "core.tasks_per_job", unit: "count", better: "lower"},
		{name: "enable.build_us.reverse-indirect", unit: "us", better: "lower"},
		{name: "workload.chain_build_us_p50", unit: "us", better: "lower"},
		{name: "workload.casper_build_us", unit: "us", better: "lower"},
		// sim
		{name: "sim.million.run_ms", unit: "ms", better: "lower"},
		{name: "sim.allocs_per_run", unit: "count", better: "lower"},
		{name: "sim.alpha_eff.p64", unit: "ratio", better: "higher"},
		{name: "sim.alpha_eff.p1024", unit: "ratio", better: "higher"},
		{name: "sim_overlap_speedup", unit: "ratio", better: "higher"},
		{name: "sim_rundown_idle_share", unit: "ratio", better: "lower"},
		// trace / telemetry / fault
		{name: "trace.overhead_pct", unit: "%", better: "lower"},
		{name: "telemetry.overhead_pct", unit: "%", better: "lower"},
		{name: "fault.armed_overhead_pct", unit: "%", better: "lower"},
		{name: "trace.events_per_job", unit: "count", better: "lower"},
		{name: "trace.write_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "trace.read_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "trace.replay_ms", unit: "ms", better: "lower"},
		{name: "telemetry.write_prom_us", unit: "us", better: "lower"},
		// generator and the benchmark itself
		{name: "gen.wait_ms_p50", unit: "ms", better: "lower"},
		{name: "gen.late_ms_p90", unit: "ms", better: "lower"},
		{name: "gen.offered_per_s", unit: "1/s", better: "higher"},
		{name: "bench.span_coverage", unit: "ratio", better: "higher"},
		{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
		{name: "bench.host_speed.exec-fine", unit: "ratio", better: "higher"},
		{name: "bench.host_speed.sim-scale", unit: "ratio", better: "higher"},
		{name: "failed_share", unit: "ratio", better: "lower"},
	}
	for _, m := range managerNames {
		d = append(d,
			def{name: "executive." + m + ".granules_per_s", unit: "1/s", better: "higher"},
			def{name: "executive." + m + ".mgmt_share", unit: "ratio", better: "lower"},
			def{name: "executive." + m + ".idle_share", unit: "ratio", better: "lower"},
			def{name: "executive." + m + ".mgmt_ratio", unit: "ratio", better: "higher"},
		)
	}
	for _, k := range enableKinds {
		d = append(d, def{name: "enable.complete_ns_per_granule." + k, unit: "ns", better: "lower"})
	}
	for _, m := range modelNames {
		d = append(d,
			def{name: "sim.single." + m + ".ns_per_granule", unit: "ns", better: "lower"},
			def{name: "sim.multi." + m + ".ns_per_granule", unit: "ns", better: "lower"},
			def{name: "sim." + m + ".utilization", unit: "ratio", better: "higher"},
			def{name: "sim." + m + ".mgmt_ratio", unit: "ratio", better: "higher"},
		)
	}
	return d
}
