package rundown_test

// Acceptance tests for the flight recorder at the public Runner surface:
// a goroutine-executive trace must replay deterministically in the
// virtual machine with conserved quantities matching exactly, two
// identical-seed virtual runs must produce byte-identical traces
// (tracediff reports zero divergence), and a trace written through
// WithTrace must read back exactly.

import (
	"bytes"
	"context"
	"testing"

	rundown "repro"
	"repro/internal/trace"
)

// traceChainFine is the acceptance workload: the fine-grain identity
// chain of the manager benchmarks at test scale — grain 1, so every
// granule is its own task and the trace exercises the dispatch path as
// hard as the benchmarks do.
func traceChainFine(t testing.TB, n int) (*rundown.Program, rundown.Options) {
	t.Helper()
	a := make([]int64, n)
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name: "fill", Granules: n,
			Work:   func(g rundown.GranuleID) { a[g] = int64(g) * 3 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "scale", Granules: n,
			Work:   func(g rundown.GranuleID) { a[g] += 1 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "sum", Granules: n,
			Work: func(g rundown.GranuleID) { a[g] ^= 7 },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog, rundown.Options{
		Grain: 1, Overlap: true, IdentityVia: rundown.IdentityTable,
		Costs: rundown.DefaultCosts(),
	}
}

// TestExecTraceReplaysInSim is the tentpole acceptance: a trace recorded
// from the goroutine executive (fine-grain chain, sharded manager, 8
// workers) replays in the virtual machine as a pinned schedule, and the
// conserved quantities — per-phase granule totals, dispatch count, full
// program completion — match the recorded run exactly.
func TestExecTraceReplaysInSim(t *testing.T) {
	const n = 1 << 10
	prog, opt := traceChainFine(t, n)
	r, err := rundown.New(
		rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
		rundown.WithDequeCap(32), rundown.WithBatch(16),
		rundown.WithTrace(nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil {
		t.Fatal("WithTrace run returned no Report.Trace")
	}
	if tr.Meta.Backend != "exec" || tr.Meta.Manager != "sharded" || tr.Meta.Workers != 8 {
		t.Fatalf("trace meta = %+v, want exec/sharded/8", tr.Meta)
	}
	if got, want := int64(tr.Count(trace.KDispatch)), rep.Tasks; got != want {
		t.Fatalf("trace records %d dispatches, report says %d tasks", got, want)
	}
	if got, want := tr.Granules(), int64(prog.TotalGranules()); got != want {
		t.Fatalf("trace completes %d granules, program has %d", got, want)
	}

	res, err := rundown.ReplayTrace(prog, opt, tr)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if res.Dispatches != rep.Tasks {
		t.Errorf("replay dispatched %d tasks, recorded run dispatched %d", res.Dispatches, rep.Tasks)
	}
	if res.Granules != int64(prog.TotalGranules()) {
		t.Errorf("replay completed %d granules, program has %d", res.Granules, prog.TotalGranules())
	}
	for pi, ph := range prog.Phases {
		if res.PhaseGranules[pi] != int64(ph.Granules) {
			t.Errorf("phase %d: replay completed %d granules, declared %d", pi, res.PhaseGranules[pi], ph.Granules)
		}
	}
	var busy int64
	for _, b := range res.Busy {
		busy += b
	}
	// Unit costs, grain 1: total virtual busy time must equal the granule
	// count exactly — the conservation the virtual timeline is built on.
	if busy != int64(prog.TotalGranules()) {
		t.Errorf("replay busy total %d, want %d (unit-cost granules)", busy, prog.TotalGranules())
	}
	if res.Makespan <= 0 || res.Utilization <= 0 {
		t.Errorf("degenerate replay timeline: makespan=%d util=%f", res.Makespan, res.Utilization)
	}
}

// TestSimTraceDeterministic pins the equal-tick ordering contract end to
// end: two identical-seed virtual runs produce identical traces, and
// DiffTraces reports zero divergence in exact mode.
func TestSimTraceDeterministic(t *testing.T) {
	run := func() *rundown.Trace {
		prog, err := rundown.Chain(rundown.KindIdentity, 3, 512, rundown.UniformCost(1, 9, 42), 42)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rundown.New(
			rundown.WithVirtualTime(rundown.SimConfig{Procs: 8, Mgmt: rundown.ShardedMgmt}),
			rundown.WithTrace(nil),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), rundown.Job{
			Prog: prog,
			Opt:  rundown.Options{Grain: 4, Overlap: true, Costs: rundown.DefaultCosts()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Trace
	}
	a, b := run(), run()
	if a.Len() == 0 {
		t.Fatal("empty virtual trace")
	}
	d := rundown.DiffTraces(a, b)
	if !d.Identical {
		t.Fatalf("identical-seed sim runs diverge at event %d: %s", d.DivergeAt, d.Reason)
	}
	if !d.Exact {
		t.Error("virtual-vs-virtual diff should compare exactly")
	}
}

// TestTraceWriteReadRoundTrip checks the WithTrace writer path: the
// binary stream a run writes reads back as exactly the captured trace.
func TestTraceWriteReadRoundTrip(t *testing.T) {
	prog, opt := traceChainFine(t, 256)
	var buf bytes.Buffer
	r, err := rundown.New(
		rundown.WithWorkers(4), rundown.WithManager(rundown.SerialManager),
		rundown.WithTrace(&buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rep.Trace.Len() {
		t.Fatalf("read back %d events, captured %d", got.Len(), rep.Trace.Len())
	}
	d := rundown.DiffTraces(got, rep.Trace)
	if !d.Identical {
		t.Fatalf("file round trip diverges at %d: %s", d.DivergeAt, d.Reason)
	}
}

// TestPoolIgnoresAdaptiveBatching pins what WithAdaptiveBatching's doc
// says of goroutine runs, Run and RunAll alike: the option selects a
// management model in virtual time only. On goroutines the run keeps the
// manager WithManager names — serial without one — with fixed parameters,
// and a traced run records zero KRetune events.
func TestPoolIgnoresAdaptiveBatching(t *testing.T) {
	for _, c := range []struct {
		opts []rundown.Option
		want rundown.ExecManager
	}{
		{[]rundown.Option{rundown.WithManager(rundown.ShardedManager)}, rundown.ShardedManager},
		{nil, rundown.SerialManager},
	} {
		r, err := rundown.New(append(c.opts,
			rundown.WithWorkers(4), rundown.WithAdaptiveBatching(0), rundown.WithTrace(nil))...)
		if err != nil {
			t.Fatal(err)
		}
		for _, njobs := range []int{1, 2} {
			jobs := make([]rundown.Job, njobs)
			for i := range jobs {
				jobs[i].Prog, jobs[i].Opt = traceChainFine(t, 512)
			}
			run := func() (*rundown.Report, error) { return r.RunAll(context.Background(), jobs) }
			if njobs == 1 {
				run = func() (*rundown.Report, error) { return r.Run(context.Background(), jobs[0]) }
			}
			rep, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Manager != c.want {
				t.Errorf("%d-job run under WithAdaptiveBatching: Report.Manager = %v, want %v", njobs, rep.Manager, c.want)
			}
			if rep.Trace == nil {
				t.Fatal("no trace captured")
			}
			if n := rep.Trace.Count(trace.KRetune); n != 0 {
				t.Errorf("%d-job run under WithAdaptiveBatching recorded %d KRetune events, want 0", njobs, n)
			}
		}
	}
	// In virtual time the same option selects the Adaptive model.
	r, err := rundown.New(rundown.WithWorkers(4), rundown.WithAdaptiveBatching(0),
		rundown.WithVirtualTime(rundown.SimConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	prog, opt := traceChainFine(t, 512)
	rep, err := r.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != rundown.AdaptiveMgmt {
		t.Errorf("virtual run under WithAdaptiveBatching: Report.Model = %v, want %v", rep.Model, rundown.AdaptiveMgmt)
	}
}

// TestPoolTraceAttributesJobs checks the tenant pool's recording: a
// two-job RunAll trace names both jobs in its meta and attributes every
// dispatch to a valid job index.
func TestPoolTraceAttributesJobs(t *testing.T) {
	progA, optA := traceChainFine(t, 512)
	progB, optB := traceChainFine(t, 256)
	r, err := rundown.New(
		rundown.WithWorkers(4), rundown.WithManager(rundown.ShardedManager),
		rundown.WithPool(), rundown.WithTrace(nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunAll(context.Background(), []rundown.Job{
		{Name: "alpha", Prog: progA, Opt: optA},
		{Name: "beta", Prog: progB, Opt: optB},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil {
		t.Fatal("no trace captured")
	}
	if tr.Meta.Backend != "pool" || len(tr.Meta.Jobs) != 2 ||
		tr.Meta.Jobs[0] != "alpha" || tr.Meta.Jobs[1] != "beta" {
		t.Fatalf("pool trace meta = %+v, want backend=pool jobs=[alpha beta]", tr.Meta)
	}
	perJob := map[int32]int64{}
	for _, ev := range tr.Events {
		if ev.Kind == trace.KDispatch {
			if ev.Job < 0 || ev.Job > 1 {
				t.Fatalf("dispatch with job index %d", ev.Job)
			}
			perJob[ev.Job]++
		}
	}
	if perJob[0] == 0 || perJob[1] == 0 {
		t.Fatalf("per-job dispatch counts %v: both jobs must appear", perJob)
	}
	if got := tr.Granules(); got != int64(progA.TotalGranules()+progB.TotalGranules()) {
		t.Fatalf("pool trace completes %d granules, jobs total %d",
			got, progA.TotalGranules()+progB.TotalGranules())
	}
}
