package tenant

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/testutil"
)

// TestTotalsExactAtRetirement: a job's compute time and task count are
// totalled by its managers under the lock that serializes the state
// machine, so they are exact the moment the job retires — no worker-local
// remainder is still on its way — and Tasks is the state machine's
// completion count by construction, on every manager at every width. While
// the job runs Job.Tasks only grows. The retry rows fail the first attempt
// with an injected error in the last phase: the totals then cover the dead
// attempt too, carried by the next one as a constant.
func TestTotalsExactAtRetirement(t *testing.T) {
	const phases, n, grain = 3, 4096, 2
	for _, kind := range executive.ManagerKinds() {
		for _, workers := range []int{1, 2, 4} {
			for _, retry := range []bool{false, true} {
				name := fmt.Sprintf("%v/P%d/retry=%v", kind, workers, retry)
				cfg := Config{Workers: workers, Manager: kind}
				jc := JobConfig{}
				if retry {
					// The backoff lets the dead attempt's last tasks finish
					// before the next attempt rewrites their granules.
					cfg.Faults = &fault.Spec{Rules: []fault.Rule{{
						Kind: fault.GrainError, Job: 0, Phase: phases - 1, Granule: n / 2, Worker: -1, Count: 1,
					}}}
					jc = JobConfig{Retry: 1, Backoff: 20 * time.Millisecond}
				}
				p, err := NewPool(cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog, ledger := testutil.LedgerChain(t, phases, n)
				j, err := p.Submit(prog, core.Options{
					Grain: grain, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts(),
				}, jc)
				if err != nil {
					t.Fatal(err)
				}
				first := j.cur.Load()

				var poller sync.WaitGroup
				poller.Add(1)
				go func() {
					defer poller.Done()
					var prev int64
					for {
						select {
						case <-j.Done():
							return
						default:
						}
						got := j.Tasks()
						if got < prev {
							t.Errorf("%s: Job.Tasks went from %d to %d", name, prev, got)
							return
						}
						prev = got
					}
				}()
				rep, err := j.Wait()
				poller.Wait()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := p.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				var dead totals // what the attempts before the last applied
				if retry {
					if got := j.Attempts(); got != 2 {
						t.Fatalf("%s: %d attempts, want 2", name, got)
					}
					dead = j.cur.Load().prior
					if dead.tasks == 0 || dead.tasks != first.sched.Stats().Completions || dead.compute <= 0 {
						t.Errorf("%s: the retry carries %+v for a dead attempt that applied %d completions",
							name, dead, first.sched.Stats().Completions)
					}
				} else {
					ledger.Check(t)
				}
				if rep.Tasks != dead.tasks+rep.Sched.Completions || rep.Sched.Completions != rep.Sched.Dispatches {
					t.Errorf("%s: Tasks = %d with %d carried, state machine dispatched %d and completed %d",
						name, rep.Tasks, dead.tasks, rep.Sched.Dispatches, rep.Sched.Completions)
				}
				if want := int64(phases * n / grain); rep.Sched.Completions != want {
					t.Errorf("%s: %d completions for a program of %d tasks", name, rep.Sched.Completions, want)
				}
				if rep.Compute <= dead.compute {
					t.Errorf("%s: Compute = %v with %v carried", name, rep.Compute, dead.compute)
				}
				if got := j.Tasks(); got != rep.Tasks {
					t.Errorf("%s: Job.Tasks = %d after Wait reported %d", name, got, rep.Tasks)
				}
			}
		}
	}
}
