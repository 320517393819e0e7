package executive

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// TestManagerContract pins the run contract every manager shares, through
// NewManager and the Manager interface alone:
//
//   - a run whose state machine completed refuses an abort: Outcome stays
//     (true, nil) and the totals do not move;
//   - the first error wins: a second Abort on a live run does not replace
//     the first one's error;
//   - nothing moves after the failure point: an Enter reporting a finished
//     task after the abort — stamped, or unstamped from an open stretch —
//     moves no total and hands out no task, and neither does a Flush of a
//     completion held back before it (an inline flush drops it, and its
//     lock visit is charged to no one); on the lane manager that holds too
//     for an abort landing between a stocked hand-off's steal and its push.
//
// The sharded kind runs the lane manager inline and the async kind
// dedicated (newTestManager), so the contract holds under both placements.
func TestManagerContract(t *testing.T) {
	const workers = 4
	newRun := func(t *testing.T, kind ManagerKind) (Manager, *core.Program) {
		t.Helper()
		prog, _, _, _ := buildCopyChain(t, 256)
		sched, err := core.New(prog, core.Options{Workers: workers, Grain: 4, Overlap: true, Costs: core.DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := newTestManager(sched, conformanceConfig(kind, workers))
		if err != nil {
			t.Fatal(err)
		}
		return mgr, prog
	}
	type totals struct {
		compute, mgmt time.Duration
		tasks         int64
	}
	read := func(m Manager) (v totals) {
		v.compute, v.mgmt, v.tasks = m.Totals()
		return v
	}
	e1, e2 := errors.New("first"), errors.New("second")
	for _, kind := range ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("completed-refuses-abort", func(t *testing.T) {
				mgr, prog := newRun(t, kind)
				if err := driveWorkers(mgr, workers, prog); err != nil {
					t.Fatal(err)
				}
				before := read(mgr)
				mgr.Abort(e1)
				if done, err := mgr.Outcome(); !done || err != nil {
					t.Errorf("Abort after completion: Outcome = (%v, %v), want (true, nil)", done, err)
				}
				if after := read(mgr); after != before {
					t.Errorf("Abort after completion moved the totals: %+v, then %+v", before, after)
				}
			})
			t.Run("first-error-wins", func(t *testing.T) {
				mgr, _ := newRun(t, kind)
				mgr.Start()
				if _, _, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskTry); !ok {
					t.Fatal("no first task")
				}
				mgr.Abort(e1)
				mgr.Abort(e2)
				mgr.Join()
				if done, err := mgr.Outcome(); done || err != e1 {
					t.Errorf("Outcome = (%v, %v), want (false, %v)", done, err, e1)
				}
			})
			t.Run("nothing-moves-after-failure", func(t *testing.T) {
				for _, stamped := range []bool{true, false} {
					for _, ask := range []Ask{AskNone, AskTry} {
						mgr, _ := newRun(t, kind)
						mgr.Start()
						task, _, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskTry)
						if !ok {
							t.Fatal("no first task")
						}
						var at clock.Stamp // unstamped: the stretch opened above runs on
						if stamped {
							at = clock.Now()
						}
						mgr.Abort(e1)
						before := read(mgr)
						if _, _, ok, _ := mgr.Enter(0, task, at, ask); ok {
							t.Errorf("stamped=%v ask %d: a task was handed out after the abort", stamped, ask)
						}
						mgr.Join()
						if after := read(mgr); after != before {
							t.Errorf("stamped=%v ask %d: Enter after the abort moved the totals: %+v, then %+v",
								stamped, ask, before, after)
						}
					}
				}
			})
			if kind != SerialManager {
				t.Run("abort-between-steal-and-push", func(t *testing.T) {
					mgr, _ := newRun(t, kind)
					mgr.Start()
					m := mgr.(*laneManager)
					done, _, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskTry)
					if !ok {
						t.Fatal("no first task")
					}
					// The stocked hand-off's two halves, the abort between them.
					stolen, ok := m.lanes[0].ready.steal()
					if !ok {
						t.Fatal("nothing buffered to steal")
					}
					mgr.Abort(e1)
					before := read(mgr)
					if _, _, ok, _ := m.handOff(0, done, stolen, 0); ok {
						t.Error("the stolen task was handed out after the abort")
					}
					mgr.Join()
					if after := read(mgr); after != before {
						t.Errorf("a hand-off after the abort moved the totals: %+v, then %+v", before, after)
					}
				})
			}
			t.Run("flush-after-failure", func(t *testing.T) {
				mgr, _ := newRun(t, kind)
				mgr.Start()
				task, _, ok, _ := mgr.Enter(0, core.Task{}, clock.Now(), AskTry)
				if !ok {
					t.Fatal("no first task")
				}
				mgr.Enter(0, task, clock.Now(), AskNone)
				// The worker's latest reading, a millisecond before the
				// Flush: a charged lock visit would show in Mgmt.
				at := clock.Now()
				time.Sleep(time.Millisecond)
				mgr.Abort(e1)
				before := read(mgr)
				mgr.Flush(0, at)
				mgr.Join()
				if after := read(mgr); after != before {
					t.Errorf("Flush after the abort moved the totals: %+v, then %+v", before, after)
				}
			})
		})
	}
}
