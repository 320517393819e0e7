package cliflags

import (
	"context"
	"flag"
	"strings"
	"testing"

	rundown "repro"
)

func parse(t *testing.T, args ...string) *Exec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := Register(fs, "serial", "management layer: "+ManagerNames())
	fs.Bool("dedicated", false, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestKindCaseInsensitive(t *testing.T) {
	e := parse(t, "-manager", "SHARDED")
	kind, err := e.Kind()
	if err != nil {
		t.Fatal(err)
	}
	if kind != rundown.ShardedManager {
		t.Fatalf("kind = %v", kind)
	}
}

func TestKindErrorEnumerates(t *testing.T) {
	e := parse(t, "-manager", "quantum")
	_, err := e.Kind()
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
	if parse(t).ManagerSet() {
		t.Error("ManagerSet true without -manager")
	}
	if !parse(t, "-manager", "serial").ManagerSet() {
		t.Error("ManagerSet false with explicit -manager")
	}
}

// TestOptionsResolve drives the resolved options through rundown.New and
// checks the backend/model they select — the flags and the Runner
// options API must agree end to end.
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
		e := parse(t, c.args...)
		opts, err := e.Options(c.dedicated)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// -dedicated names the model, as rundownsim does.
		sc := rundown.SimConfig{}
		if c.dedicated {
			sc.Mgmt = rundown.Dedicated
		}
		opts = append(opts, rundown.WithWorkers(4), rundown.WithVirtualTime(sc))
		r, err := rundown.New(opts...)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		prog, err := rundown.Chain(rundown.KindIdentity, 2, 64, rundown.UnitCost(), 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), rundown.Job{
			Prog: prog, Opt: rundown.Options{Grain: 4, Overlap: true, Costs: rundown.DefaultCosts()},
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep.Model != c.wantModel {
			t.Errorf("case %d: model = %v, want %v", i, rep.Model, c.wantModel)
		}
	}
}

func TestOptionsConflicts(t *testing.T) {
	if _, err := parse(t, "-manager", "sharded").Options(true); err == nil {
		t.Error("-manager sharded -dedicated accepted")
	}
	if _, err := parse(t, "-manager", "async").Options(true); err == nil {
		t.Error("-manager async -dedicated accepted")
	}
	if _, err := parse(t, "-adaptive").Options(true); err == nil {
		t.Error("-adaptive -dedicated accepted")
	}
	if _, err := parse(t, "-adaptive", "-manager", "sharded").Options(false); err == nil {
		t.Error("-adaptive with explicit -manager accepted")
	}
}
