package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/telemetry"
)

func TestParseModel(t *testing.T) {
	cases := []struct {
		in   string
		want MgmtModel
	}{
		{"steals-worker", StealsWorker},
		{"STEALS-WORKER", StealsWorker},
		{"steals", StealsWorker},
		{"dedicated", Dedicated},
		{"Dedicated", Dedicated},
		{"sharded", Sharded},
		{"SHARDED", Sharded},
		{"adaptive", Adaptive},
		{" adaptive ", Adaptive},
		{"async", Async},
		{"Async", Async},
	}
	for _, c := range cases {
		got, err := ParseModel(c.in)
		if err != nil {
			t.Errorf("ParseModel(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseModel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	_, err := ParseModel("quantum")
	if err == nil {
		t.Fatal("ParseModel accepted an unknown model")
	}
	for _, name := range ModelNames() {
		if !contains(err.Error(), name) {
			t.Errorf("ParseModel error %q does not enumerate %q", err, name)
		}
	}
	// Round trip: every listed name parses to a model whose String matches.
	for _, name := range ModelNames() {
		m, err := ParseModel(name)
		if err != nil {
			t.Errorf("listed name %q does not parse: %v", name, err)
			continue
		}
		if m.String() != name {
			t.Errorf("ParseModel(%q).String() = %q", name, m.String())
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// cancelProg builds a chain long enough that the event loop's batched ctx
// poll (every 1024 management operations) fires many times.
func cancelProg(t *testing.T) *core.Program {
	t.Helper()
	prog, err := core.NewProgram(
		&core.Phase{Name: "a", Granules: 4096, Enable: enable.NewIdentity()},
		&core.Phase{Name: "b", Granules: 4096, Enable: enable.NewIdentity()},
		&core.Phase{Name: "c", Granules: 4096},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runProgContext(ctx, cancelProg(t),
		core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()},
		Config{Procs: 8, Mgmt: Dedicated})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestRunContextCanceledSmallRun: even a run far shorter than the
// batched in-loop poll interval must observe a pre-cancelled context
// (entry check), and the observer stream must still close with a Final
// snapshot.
func TestRunContextCanceledSmallRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var snaps []telemetry.Snapshot
	_, err := runProgContext(ctx, onePhase(t, 8),
		core.Options{Grain: 4, Costs: core.DefaultCosts()},
		Config{Procs: 2, Mgmt: Dedicated,
			Observer: func(s telemetry.Snapshot) { snaps = append(snaps, s) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if len(snaps) == 0 || !snaps[len(snaps)-1].Final {
		t.Fatalf("cancelled run did not close the observer stream with Final: %v", snaps)
	}
}

func TestRunMultiContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []JobSpec{
		{Prog: cancelProg(t), Opt: core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}},
		{Prog: cancelProg(t), Opt: core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}},
	}
	_, err := Run(ctx, jobs, Config{Procs: 8, Mgmt: Dedicated})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestObserverDeterministic runs the same observed simulation twice and
// requires identical snapshot streams: virtual-time observation is part
// of the deterministic machine model, not a wall-clock side channel.
func TestObserverDeterministic(t *testing.T) {
	run := func() ([]telemetry.Snapshot, *Result) {
		var snaps []telemetry.Snapshot
		res, err := runProg(twoPhase(t, 512, enable.NewIdentity()),
			core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()},
			Config{Procs: 8, Mgmt: StealsWorker,
				Observer: func(s telemetry.Snapshot) { snaps = append(snaps, s) }})
		if err != nil {
			t.Fatal(err)
		}
		return snaps, res
	}
	a, res := run()
	b, _ := run()
	if len(a) == 0 {
		t.Fatal("observer saw no snapshots")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("snapshot streams differ:\n%v\n%v", a, b)
	}
	last := a[len(a)-1]
	if !last.Final {
		t.Error("last snapshot not marked Final")
	}
	if last.VirtualTime != res.Makespan {
		t.Errorf("final snapshot at t=%d, makespan %d", last.VirtualTime, res.Makespan)
	}
	if int64(last.Compute) != res.ComputeUnits || int64(last.Mgmt) != res.MgmtUnits {
		t.Errorf("final snapshot totals %d/%d, result %d/%d",
			last.Compute, last.Mgmt, res.ComputeUnits, res.MgmtUnits)
	}
	prev := int64(-1)
	for i, s := range a {
		if s.VirtualTime < prev {
			t.Fatalf("snapshot %d time %d went backwards from %d", i, s.VirtualTime, prev)
		}
		prev = s.VirtualTime
		if s.Utilization < 0 || s.Utilization > 1.0001 {
			t.Errorf("snapshot %d utilization %v out of range", i, s.Utilization)
		}
		// Jobs reads 1 while the program runs and 0 once it completes
		// (a trailing loop iteration may observe the drained state
		// before the Final snapshot); it must never go back up, and the
		// Final snapshot must read drained.
		if s.ActiveJobs != 0 && s.ActiveJobs != 1 {
			t.Errorf("snapshot %d jobs = %d, want 0 or 1", i, s.ActiveJobs)
		}
		if i > 0 && s.ActiveJobs > a[i-1].ActiveJobs {
			t.Errorf("snapshot %d jobs went back up to %d", i, s.ActiveJobs)
		}
		if s.Final && s.ActiveJobs != 0 {
			t.Errorf("final snapshot jobs = %d, want 0", s.ActiveJobs)
		}
	}
}

// TestObserverAdaptiveBatch checks the Adaptive model reports its live
// batch size through snapshots, to a Run observer and to the observer of
// a two-job RunMulti alike.
func TestObserverAdaptiveBatch(t *testing.T) {
	opt := core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()}
	var snaps []telemetry.Snapshot
	cfg := Config{Procs: 8, Mgmt: Adaptive, Batch: 8,
		Observer: func(s telemetry.Snapshot) { snaps = append(snaps, s) }}
	check := func(who string) {
		t.Helper()
		if len(snaps) == 0 {
			t.Fatalf("%s: no snapshots", who)
		}
		for i, s := range snaps {
			if s.Batch <= 0 {
				t.Errorf("%s: snapshot %d batch = %d, want > 0 under Adaptive", who, i, s.Batch)
			}
		}
		snaps = snaps[:0]
	}
	if _, err := runProg(twoPhase(t, 512, enable.NewIdentity()), opt, cfg); err != nil {
		t.Fatal(err)
	}
	check("Run")
	res, err := runJobs([]JobSpec{
		{Prog: twoPhase(t, 512, enable.NewIdentity()), Opt: opt},
		{Prog: twoPhase(t, 256, enable.NewIdentity()), Opt: opt},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last := snaps[len(snaps)-1]; last.Batch != res.Batch {
		t.Errorf("RunMulti: final snapshot batch = %d, result reports %d", last.Batch, res.Batch)
	}
	check("RunMulti")
}

// TestObserverMulti checks the multi-program loop's snapshots: the job
// count drains to zero by the final snapshot and the stream is
// deterministic.
func TestObserverMulti(t *testing.T) {
	run := func() []telemetry.Snapshot {
		var snaps []telemetry.Snapshot
		jobs := []JobSpec{
			{Prog: twoPhase(t, 256, enable.NewIdentity()), Opt: core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}},
			{Prog: twoPhase(t, 64, enable.NewIdentity()), Opt: core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}},
		}
		res, err := runJobs(jobs, Config{Procs: 4, Mgmt: Dedicated,
			Observer: func(s telemetry.Snapshot) { snaps = append(snaps, s) }})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= 0 {
			t.Fatal("empty run")
		}
		return snaps
	}
	a := run()
	b := run()
	if len(a) == 0 {
		t.Fatal("observer saw no snapshots")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("multi snapshot streams differ:\n%v\n%v", a, b)
	}
	last := a[len(a)-1]
	if !last.Final {
		t.Error("last snapshot not Final")
	}
	if last.ActiveJobs != 0 {
		t.Errorf("final snapshot jobs = %d, want 0", last.ActiveJobs)
	}
	// The live stream must never report a virtual time beyond the Final
	// snapshot's (the frontier excludes trailing management-server time
	// that the multi makespan does not count).
	for i, s := range a {
		if s.VirtualTime > last.VirtualTime {
			t.Errorf("snapshot %d at t=%d is beyond the final t=%d", i, s.VirtualTime, last.VirtualTime)
		}
	}
}
