package executive

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// stubSM is a StateMachine that never yields work and never finishes: the
// shape of a stalled scheduler, unreachable through the real state
// machine's liveness guarantees. Managers must detect it and fail loudly
// instead of parking every worker forever. All methods are called under
// the manager's own serialization, so the stub needs no locking.
type stubSM struct {
	phase int
}

func (s *stubSM) Start() core.Cost                       { return 0 }
func (s *stubSM) NextTask() (core.Task, core.Cost, bool) { return core.Task{}, 0, false }
func (s *stubSM) Complete(core.Task) core.Cost           { return 0 }
func (s *stubSM) CompleteBatch(ts []core.Task) core.Cost { return 0 }
func (s *stubSM) DeferredMgmt() (core.Cost, bool)        { return 0, false }
func (s *stubSM) HasDeferred() bool                      { return false }
func (s *stubSM) Done() bool                             { return false }
func (s *stubSM) InFlight() int                          { return 0 }
func (s *stubSM) ReadyTasks() int                        { return 0 }
func (s *stubSM) CurrentPhase() int                      { return s.phase }
func (s *stubSM) Stats() core.Stats                      { return core.Stats{} }
func (s *stubSM) NextTasks(dst []core.Task, max int) ([]core.Task, core.Cost) {
	return dst, 0
}

// driveWorkers runs the plain worker protocol over mgr until every worker
// exits, then returns the run error.
func driveWorkers(mgr Manager, workers int) error {
	mgr.Start()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			t, at, ok, _ := mgr.Enter(w, core.Task{}, clock.Now(), AskWait)
			for ok {
				t, at, ok, _ = mgr.Enter(w, t, at, AskWait)
			}
		}(w)
	}
	wg.Wait()
	mgr.Join()
	_, err := mgr.Outcome()
	return err
}

// TestStallDetector: when every worker is parked with nothing in flight
// and the state machine is not done, both managers must surface a stall
// error rather than deadlock.
func TestStallDetector(t *testing.T) {
	for _, kind := range ManagerKinds() {
		for _, workers := range []int{1, 4, 9} {
			mgr, err := NewManager(&stubSM{phase: 7}, Config{
				Workers: workers, Manager: kind, DequeCap: 4, Batch: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = driveWorkers(mgr, workers)
			if err == nil {
				t.Fatalf("%v/%d workers: stalled run returned no error", kind, workers)
			}
			if !strings.Contains(err.Error(), "stalled at phase 7") {
				t.Fatalf("%v/%d workers: error %q does not identify the stall", kind, workers, err)
			}
		}
	}
}

// TestWorkPanicMidPhase: a work-function panic in the middle phase of a
// three-phase program must surface as a run error under both managers,
// with the remaining workers released.
func TestWorkPanicMidPhase(t *testing.T) {
	for _, kind := range ManagerKinds() {
		n := 512
		a := make([]int64, n)
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "fill", Granules: n,
				Work:   func(g granule.ID) { a[g] = int64(g) },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "poison", Granules: n,
				Work: func(g granule.ID) {
					if g == granule.ID(n/2) {
						panic("mid-phase poison")
					}
				},
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "after", Granules: n,
				Work: func(g granule.ID) { a[g] = -a[g] },
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(prog, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()},
			Config{Workers: 8, Manager: kind, DequeCap: 4, Batch: 2})
		if err == nil {
			t.Fatalf("%v: mid-phase panic did not surface", kind)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%v: error %q does not mention the panic", kind, err)
		}
	}
}

// TestShardedCorrectness runs the copy chain under the sharded manager
// across deque/batch extremes and verifies the computed values.
func TestShardedCorrectness(t *testing.T) {
	cases := []struct{ workers, deque, batch, grain int }{
		{1, 1, 1, 4},
		{4, 2, 1, 4},
		{8, 16, 8, 8},
		{12, 64, 32, 2},
	}
	for _, tc := range cases {
		prog, a, b, c := buildCopyChain(t, 2048)
		rep, err := Run(prog, core.Options{
			Grain: tc.grain, Overlap: true, Costs: core.DefaultCosts(),
		}, Config{
			Workers: tc.workers, Manager: ShardedManager,
			DequeCap: tc.deque, Batch: tc.batch,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkCopyChain(t, a, b, c)
		if rep.Manager != ShardedManager {
			t.Errorf("%+v: report manager = %v", tc, rep.Manager)
		}
		if rep.Sched.Completions == 0 {
			t.Errorf("%+v: no completions recorded", tc)
		}
	}
}

// TestShardedReverseGather mirrors TestExecutiveReverseGather under the
// sharded manager: batched completions must never let a reverse-indirect
// gather run before both of its sources are written.
func TestShardedReverseGather(t *testing.T) {
	n := 512
	a := make([]int64, 2*n)
	d := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: 2 * n,
			Work: func(g granule.ID) { a[g] = int64(g) * 7 },
			Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{2 * r, 2*r + 1}
			}),
		},
		&core.Phase{
			Name: "gather", Granules: n,
			Work: func(g granule.ID) { d[g] = a[2*g] + a[2*g+1] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog, core.Options{
		Grain: 8, Overlap: true, Elevate: true, SubsetSize: 32,
		Costs: core.DefaultCosts(),
	}, Config{Workers: 8, Manager: ShardedManager, DequeCap: 4, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		want := int64(2*r)*7 + int64(2*r+1)*7
		if d[r] != want {
			t.Fatalf("d[%d] = %d, want %d", r, d[r], want)
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
	if _, err := Run(prog, core.Options{}, Config{Workers: 2, Manager: ManagerKind(250)}); err == nil {
		t.Error("unknown manager kind accepted")
	}
	sched, err := core.New(prog, core.Options{Workers: 2, Costs: core.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(sched, Config{Workers: 2, Manager: ManagerKind(250)}); err == nil {
		t.Error("unknown manager kind accepted by NewManager")
	}
}
