package tenant

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/testutil"
)

// TestCompiledMapShared: one reverse-indirect program, not yet compiled,
// submitted as four concurrent jobs to one pool. The submits race to
// compile it and exactly one does; the four schedulers then share the
// compiled arrays and own their counters — every granule runs once per
// job, no gather before its producers, and (under -race) no write to
// anything shared.
func TestCompiledMapShared(t *testing.T) {
	const n, fan, jobs = 1024, 3, 4
	for _, kind := range executive.ManagerKinds() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			built, ledger := testutil.GatherProgram(t, n, fan)
			var calls atomic.Int64
			produce := *built.Phases[0]
			requires := produce.Enable.Requires
			produce.Enable = enable.NewReverse(func(r granule.ID) []granule.ID {
				calls.Add(1)
				return requires(r)
			})
			prog := &core.Program{Phases: []*core.Phase{&produce, built.Phases[1]}}

			p, err := NewPool(Config{Workers: 4, Manager: kind})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < jobs; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					j, err := p.Submit(prog, core.Options{
						Grain: 4, Overlap: true, Elevate: true, SubsetSize: 64,
						InlineMaps: i%2 == 0, Costs: core.DefaultCosts(),
					}, JobConfig{Name: fmt.Sprintf("gather%d", i)})
					if err != nil {
						t.Error(err)
						return
					}
					rep, err := j.Wait()
					if err != nil {
						t.Error(err)
						return
					}
					if i%2 == 0 && (rep.Sched.TableBuilds != 1 || rep.Sched.TableEntries == 0) {
						t.Errorf("job %d: %d table builds, %d entries: every run is charged its own map",
							i, rep.Sched.TableBuilds, rep.Sched.TableEntries)
					}
				}()
			}
			wg.Wait()
			if _, err := p.Close(); err != nil {
				t.Fatal(err)
			}
			ledger.Check(t, jobs)
			if got := calls.Load(); got != n {
				t.Errorf("mapping function evaluated %d times over %d concurrent jobs, want %d (once per gather)", got, jobs, n)
			}
		})
	}
}

// TestRetryReusesCompiledMap: the attempt that follows an injected error
// is a new scheduler over the same program, and calls no mapping function.
func TestRetryReusesCompiledMap(t *testing.T) {
	const phases, n = 3, 256
	var calls atomic.Int64
	seam := func(r granule.ID) []granule.ID {
		calls.Add(1)
		return []granule.ID{r, (r + 1) % n}
	}
	specs := make([]*core.Phase, phases)
	for k := range specs {
		specs[k] = &core.Phase{Name: fmt.Sprintf("p%d", k), Granules: n}
		if k < phases-1 {
			specs[k].Enable = enable.NewSeam(seam)
		}
	}
	prog, err := core.NewProgram(specs...)
	if err != nil {
		t.Fatal(err)
	}
	const compiled = (phases - 1) * n
	if got := calls.Load(); got != compiled {
		t.Fatalf("NewProgram evaluated the seam function %d times, want %d", got, compiled)
	}
	p, err := NewPool(Config{
		Workers: 2,
		Faults: &fault.Spec{Rules: []fault.Rule{{
			Kind: fault.GrainError, Job: 0, Phase: phases - 1, Granule: n / 2, Worker: -1, Count: 1,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(prog, core.Options{Grain: 4, Overlap: true, InlineMaps: true},
		JobConfig{Retry: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("retried job failed: %v", err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Attempts(); got != 2 {
		t.Errorf("Attempts = %d, want 2", got)
	}
	if got := calls.Load(); got != compiled {
		t.Errorf("seam function evaluated %d times after a retry, want %d: the second attempt recompiled", got, compiled)
	}
}
