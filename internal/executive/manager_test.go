package executive

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// stubSM is a StateMachine that never yields work and never finishes: the
// shape of a stalled scheduler, unreachable through the real state
// machine's liveness guarantees. All methods are called under
// the manager's own serialization, so the stub needs no locking.
type stubSM struct{}

func (s *stubSM) Start() core.Cost                       { return 0 }
func (s *stubSM) NextTask() (core.Task, core.Cost, bool) { return core.Task{}, 0, false }
func (s *stubSM) Complete(core.Task) core.Cost           { return 0 }
func (s *stubSM) CompleteBatch(ts []core.Task) core.Cost { return 0 }
func (s *stubSM) DeferredMgmt() (core.Cost, bool)        { return 0, false }
func (s *stubSM) HasDeferred() bool                      { return false }
func (s *stubSM) Done() bool                             { return false }
func (s *stubSM) InFlight() int                          { return 0 }
func (s *stubSM) NextTasks(dst []core.Task, max int) ([]core.Task, core.Cost) {
	return dst, 0
}

// driveWorkers plays the worker loop over mgr with no pool around it: each
// goroutine enters the executive once per task — running the task's work
// when prog is given — and, having nowhere to park, yields and asks again
// while the run is neither done nor failed. It returns the run error.
func driveWorkers(mgr Manager, workers int, prog *core.Program) error {
	mgr.Start()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var t core.Task
			for {
				next, _, ok, _ := mgr.Enter(w, t, clock.Now(), AskTry)
				if t = next; ok {
					if prog == nil {
						continue
					}
					if err := RunTask(prog.Phases[t.Phase].Work, t); err != nil {
						mgr.Abort(err)
						return
					}
					continue
				}
				mgr.Flush(w, clock.Now())
				if done, err := mgr.Outcome(); done || err != nil {
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	mgr.Join()
	_, err := mgr.Outcome()
	return err
}

// TestStallDetector is the managers' half of stall detection, which is the
// pool's to perform (TestPoolStallDetector drives it for every manager):
// over a state machine that never yields work and never finishes, a
// manager must not park the asking worker or fail the run on its own
// authority — every ask comes straight back dry — and must report exactly
// what the pool's all-parked probe reads: unfinished, no error, nothing in
// flight. The pool's verdict then sticks.
func TestStallDetector(t *testing.T) {
	for _, kind := range ManagerKinds() {
		for _, workers := range []int{1, 4, 9} {
			mgr, err := newTestManager(&stubSM{}, Config{
				Workers: workers, Manager: kind, DequeCap: 4, Batch: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			mgr.Start()
			for w := 0; w < workers; w++ {
				if _, _, ok, applied := mgr.Enter(w, core.Task{}, clock.Now(), AskTry); ok || applied {
					t.Fatalf("%v/%d workers: a dry state machine dispatched (ok=%v applied=%v)", kind, workers, ok, applied)
				}
			}
			if done, err := mgr.Outcome(); done || err != nil {
				t.Fatalf("%v/%d workers: outcome (%v, %v) before any verdict, want (false, nil)", kind, workers, done, err)
			}
			if n := mgr.InFlight(); n != 0 {
				t.Fatalf("%v/%d workers: %d tasks in flight on a machine that dispatched none", kind, workers, n)
			}
			mgr.Abort(errAbortTest)
			mgr.Join()
			if _, err := mgr.Outcome(); err != errAbortTest {
				t.Fatalf("%v/%d workers: outcome error %v, want the stall verdict", kind, workers, err)
			}
		}
	}
}

func TestManagerKindParse(t *testing.T) {
	for _, kind := range ManagerKinds() {
		got, err := ParseManager(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseManager(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseManager("quantum"); err == nil {
		t.Error("unknown manager name accepted")
	}
	if s := ManagerKind(250).String(); !strings.Contains(s, "250") {
		t.Errorf("invalid kind string %q", s)
	}
}

func TestUnknownManagerRejected(t *testing.T) {
	prog, _, _, _ := buildCopyChain(t, 16)
	sched, err := core.New(prog, core.Options{Workers: 2, Costs: core.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(sched, Config{Workers: 2, Manager: ManagerKind(250)}); err == nil {
		t.Error("unknown manager kind accepted by NewManager")
	}
}

func TestParseManager(t *testing.T) {
	cases := []struct {
		in   string
		want ManagerKind
	}{
		{"serial", SerialManager},
		{"SERIAL", SerialManager},
		{"Serial", SerialManager},
		{" sharded ", ShardedManager},
		{"SHARDED", ShardedManager},
		{"async", AsyncManager},
		{"ASYNC", AsyncManager},
	}
	for _, c := range cases {
		got, err := ParseManager(c.in)
		if err != nil {
			t.Errorf("ParseManager(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseManager(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	_, err := ParseManager("quantum")
	if err == nil {
		t.Fatal("ParseManager accepted an unknown manager")
	}
	for _, name := range ManagerNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseManager error %q does not enumerate %q", err, name)
		}
	}
}
