package main

import (
	"context"
	"flag"
	"strings"
	"testing"

	rundown "repro"
)

func TestSparkline(t *testing.T) {
	if s := sparkline([]float64{0, 0.5, 1, -1, 2}); s != " ▄█ █" {
		t.Errorf("sparkline = %q", s)
	}
	if sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
}

func TestFormatPercent(t *testing.T) {
	if formatPercent(0.973) != "97.3%" {
		t.Errorf("formatPercent = %q", formatPercent(0.973))
	}
}

func parseExec(t *testing.T, args ...string) *execFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := registerExec(fs)
	fs.Bool("dedicated", false, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return e
}

// resolvedModel drives the resolved options through rundown.New and a
// virtual run, as rundownsim does, and returns the model they select — the
// flags and the Runner options API must agree end to end.
func resolvedModel(t *testing.T, opts []rundown.Option, dedicated bool) rundown.MgmtModel {
	t.Helper()
	// -dedicated names the model, as rundownsim does.
	sc := rundown.SimConfig{}
	if dedicated {
		sc.Mgmt = rundown.Dedicated
	}
	r, err := rundown.New(append(opts, rundown.WithWorkers(4), rundown.WithVirtualTime(sc))...)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rundown.Chain(rundown.KindIdentity, 2, 64, rundown.UnitCost(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), rundown.Job{
		Prog: prog, Opt: rundown.Options{Grain: 4, Overlap: true, Costs: rundown.DefaultCosts()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Model
}

func TestKindCaseInsensitive(t *testing.T) {
	opts, err := parseExec(t, "-manager", "SHARDED").options(false)
	if err != nil {
		t.Fatal(err)
	}
	if m := resolvedModel(t, opts, false); m != rundown.ShardedMgmt {
		t.Fatalf("model = %v", m)
	}
}

func TestKindErrorEnumerates(t *testing.T) {
	_, err := parseExec(t, "-manager", "quantum").options(false)
	if err == nil {
		t.Fatal("unknown manager accepted")
	}
	for _, name := range rundown.ExecManagerNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate %q", err, name)
		}
	}
}

func TestManagerSet(t *testing.T) {
	if parseExec(t).managerSet() {
		t.Error("managerSet true without -manager")
	}
	if !parseExec(t, "-manager", "serial").managerSet() {
		t.Error("managerSet false with explicit -manager")
	}
}

// TestOptionsResolve checks the backend model each flag combination
// selects through rundown.New.
func TestOptionsResolve(t *testing.T) {
	cases := []struct {
		args      []string
		dedicated bool
		wantModel rundown.MgmtModel
	}{
		{nil, false, rundown.StealsWorker},
		{nil, true, rundown.Dedicated},
		{[]string{"-manager", "sharded"}, false, rundown.ShardedMgmt},
		{[]string{"-manager", "ASYNC"}, false, rundown.AsyncMgmt},
		{[]string{"-adaptive"}, false, rundown.AdaptiveMgmt},
	}
	for i, c := range cases {
		opts, err := parseExec(t, c.args...).options(c.dedicated)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if m := resolvedModel(t, opts, c.dedicated); m != c.wantModel {
			t.Errorf("case %d: model = %v, want %v", i, m, c.wantModel)
		}
	}
}

func TestOptionsConflicts(t *testing.T) {
	if _, err := parseExec(t, "-manager", "sharded").options(true); err == nil {
		t.Error("-manager sharded -dedicated accepted")
	}
	if _, err := parseExec(t, "-manager", "async").options(true); err == nil {
		t.Error("-manager async -dedicated accepted")
	}
	if _, err := parseExec(t, "-adaptive").options(true); err == nil {
		t.Error("-adaptive -dedicated accepted")
	}
	if _, err := parseExec(t, "-adaptive", "-manager", "sharded").options(false); err == nil {
		t.Error("-adaptive with explicit -manager accepted")
	}
}
