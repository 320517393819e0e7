package rundown_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rundown "repro"
)

// This file exercises the public telemetry surface (WithMetrics /
// WithMetricsRegistry / Report.Metrics / the per-job QueueWait and
// DeadlineMargin fields) across all three backends. The recording
// internals are covered by internal/telemetry's tests and the
// internal/sim metrics goldens; here the contract is the Runner's.

func metricValue(t *testing.T, d *rundown.MetricsDump, name string) int64 {
	t.Helper()
	m := d.Get(name)
	if m == nil {
		t.Fatalf("metric %q missing from dump", name)
	}
	return m.Value
}

// TestMetricsOffByDefault pins the opt-in contract: without WithMetrics
// the report carries no dump.
func TestMetricsOffByDefault(t *testing.T) {
	r, err := rundown.New(rundown.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	job, dst := buildRunnerJob(t, 256)
	rep, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	checkRunnerJob(t, dst)
	if rep.Metrics != nil {
		t.Fatalf("metrics off, but Report.Metrics = %+v", rep.Metrics)
	}
}

// TestMetricsThreeBackends runs the same metered Job on every backend
// and checks the dump is present, task-consistent, and carries the
// right time base.
func TestMetricsThreeBackends(t *testing.T) {
	cases := []struct {
		name string
		opts []rundown.Option
		unit string
	}{
		{"virtual", []rundown.Option{rundown.WithWorkers(8),
			rundown.WithVirtualTime(rundown.SimConfig{Procs: 8})}, "virtual"},
		{"exec", []rundown.Option{rundown.WithWorkers(4)}, "ns"},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool()}, "ns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := rundown.New(append(tc.opts, rundown.WithMetrics())...)
			if err != nil {
				t.Fatal(err)
			}
			job, _ := buildRunnerJob(t, 512)
			rep, err := r.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Metrics == nil {
				t.Fatal("WithMetrics run returned no Report.Metrics")
			}
			if rep.Metrics.TimeUnit != tc.unit {
				t.Errorf("TimeUnit = %q, want %q", rep.Metrics.TimeUnit, tc.unit)
			}
			if got := metricValue(t, rep.Metrics, "rundown_dispatch_total"); got == 0 {
				t.Error("rundown_dispatch_total = 0 after a completed run")
			}
			if got := metricValue(t, rep.Metrics, "rundown_complete_total"); got != rep.Tasks {
				t.Errorf("rundown_complete_total = %d, want Report.Tasks = %d", got, rep.Tasks)
			}
			if got := metricValue(t, rep.Metrics, "rundown_jobs_done_total"); got != 1 {
				t.Errorf("rundown_jobs_done_total = %d, want 1", got)
			}
			if got := metricValue(t, rep.Metrics, "rundown_jobs_active"); got != 0 {
				t.Errorf("rundown_jobs_active = %d after the run, want 0", got)
			}
			if m := rep.Metrics.Get("rundown_compute_time_total"); m.Value <= 0 {
				t.Errorf("rundown_compute_time_total = %d, want > 0", m.Value)
			}
		})
	}
}

// TestMetricsBatchSizeOnlyAdaptive: rundown_batch_size is the virtual
// Adaptive model's refill batch and nothing else. A goroutine lane's
// capacity is not a batch, so a sharded or async run with WithDequeCap(32)
// must not report 32 under that name; a virtual Adaptive run reports its
// fixed batch.
func TestMetricsBatchSizeOnlyAdaptive(t *testing.T) {
	batchSize := func(opts ...rundown.Option) int64 {
		t.Helper()
		r, err := rundown.New(append(opts, rundown.WithMetrics())...)
		if err != nil {
			t.Fatal(err)
		}
		job, _ := buildRunnerJob(t, 512)
		rep, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if m := rep.Metrics.Get("rundown_batch_size"); m != nil {
			return m.Value
		}
		return 0
	}
	for _, kind := range []rundown.ExecManager{rundown.ShardedManager, rundown.AsyncManager} {
		if got := batchSize(rundown.WithWorkers(4), rundown.WithManager(kind), rundown.WithDequeCap(32)); got == 32 {
			t.Errorf("%v with WithDequeCap(32): rundown_batch_size = 32, the lane capacity", kind)
		}
	}
	if got := batchSize(rundown.WithVirtualTime(rundown.SimConfig{Procs: 4, Mgmt: rundown.AdaptiveMgmt}), rundown.WithBatch(8)); got != 8 {
		t.Errorf("virtual Adaptive with WithBatch(8): rundown_batch_size = %d, want 8", got)
	}
}

// TestMetricsVirtualDeterministic pins the tentpole determinism claim at
// the public surface: two identical virtual runs marshal bit-identical
// dumps (the internal goldens pin the exact contents per model).
func TestMetricsVirtualDeterministic(t *testing.T) {
	dump := func() []byte {
		r, err := rundown.New(rundown.WithMetrics(),
			rundown.WithVirtualTime(rundown.SimConfig{Procs: 8}))
		if err != nil {
			t.Fatal(err)
		}
		job, _ := buildRunnerJob(t, 1024)
		rep, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical virtual runs dumped different metrics:\n%s\n%s", a, b)
	}
}

// TestMetricsRunAllJobFields checks the satellite JobReport surface on a
// metered pool RunAll: queue waits under single-slot admission and
// deadline margins for deadlined jobs.
func TestMetricsRunAllJobFields(t *testing.T) {
	r, err := rundown.New(
		rundown.WithWorkers(4), rundown.WithMetrics(),
		rundown.WithAdmission(1, true),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobA, _ := buildRunnerJob(t, 512)
	jobB, _ := buildRunnerJob(t, 512)
	jobA.Name, jobB.Name = "a", "b"
	jobA.Deadline, jobB.Deadline = time.Minute, time.Minute
	rep, err := r.RunAll(context.Background(), []rundown.Job{jobA, jobB})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("got %d job reports, want 2", len(rep.Jobs))
	}
	for _, jr := range rep.Jobs {
		if !jr.HasDeadline {
			t.Errorf("job %q: HasDeadline = false under Job.Deadline", jr.Name)
		}
		if jr.DeadlineMargin <= 0 {
			t.Errorf("job %q: DeadlineMargin = %v, want > 0 for a met deadline", jr.Name, jr.DeadlineMargin)
		}
		if jr.QueueWait < 0 {
			t.Errorf("job %q: QueueWait = %v, want >= 0", jr.Name, jr.QueueWait)
		}
	}
	// Single-slot admission serializes the jobs: the second one queued for
	// at least the length of some first-job execution.
	if rep.Jobs[1].QueueWait == 0 {
		t.Errorf("job %q: QueueWait = 0 behind a single-slot admission gate", rep.Jobs[1].Name)
	}
	if got := metricValue(t, rep.Metrics, "rundown_jobs_total"); got != 2 {
		t.Errorf("rundown_jobs_total = %d, want 2", got)
	}
	if m := rep.Metrics.Get("rundown_queue_wait"); m.Count != 2 {
		t.Errorf("rundown_queue_wait count = %d, want 2", m.Count)
	}
}

// TestMetricsVirtualRunAllDeadlineMargin checks the virtual side of the
// JobReport satellite: margin = deadline − makespan on the
// one-unit-per-nanosecond clock, deterministic.
func TestMetricsVirtualRunAllDeadlineMargin(t *testing.T) {
	r, err := rundown.New(rundown.WithMetrics(),
		rundown.WithVirtualTime(rundown.SimConfig{Procs: 8}))
	if err != nil {
		t.Fatal(err)
	}
	job, _ := buildRunnerJob(t, 512)
	job.Deadline = time.Duration(1 << 40)
	rep, err := r.RunAll(context.Background(), []rundown.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	if !jr.HasDeadline {
		t.Fatal("HasDeadline = false for a deadlined virtual job")
	}
	want := time.Duration(int64(job.Deadline) - jr.Sim.Makespan)
	if jr.DeadlineMargin != want {
		t.Errorf("DeadlineMargin = %v, want deadline-makespan = %v", jr.DeadlineMargin, want)
	}
	if jr.QueueWait != 0 {
		t.Errorf("QueueWait = %v on the virtual backend, want 0", jr.QueueWait)
	}
}

// TestMetricsRegistryHandler drives the WithMetricsRegistry flow a
// service uses: a caller-owned registry scraped over HTTP serves every
// rundown series after (and during) runs that record into it.
func TestMetricsRegistryHandler(t *testing.T) {
	reg := rundown.NewMetricsRegistry(4, "ns")
	r, err := rundown.New(rundown.WithWorkers(4), rundown.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	job, _ := buildRunnerJob(t, 256)
	rep, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, series := range []string{
		"rundown_dispatch_total", "rundown_compute_time_total",
		"rundown_dispatch_wait_bucket", "rundown_jobs_active",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("Prometheus exposition missing %q", series)
		}
	}
	// The report dump and the live registry read the same counters.
	if got := metricValue(t, rep.Metrics, "rundown_complete_total"); got != rep.Tasks {
		t.Errorf("rundown_complete_total = %d, want %d", got, rep.Tasks)
	}
	// FormatMetrics renders every metric the dump carries.
	if out := rundown.FormatMetrics(rep.Metrics); !strings.Contains(out, "rundown_dispatch_wait") {
		t.Errorf("FormatMetrics output missing histogram line:\n%s", out)
	}
}
