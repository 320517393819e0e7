package tenant

// Tests for the pool's production-tenancy surface: deadlines, retries,
// admission control, idempotent lifecycle, and deterministic fault
// injection (including the wedged-worker watchdog probe, exercised under
// both the serial and sharded pool drivers).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
)

func TestPoolCloseIdempotent(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, a, b, c := buildCopyChain(t, 32)
	if _, err := p.Submit(prog, core.Options{}, JobConfig{}); err != nil {
		t.Fatal(err)
	}
	rep1, err1 := p.Close()
	rep2, err2 := p.Close()
	if rep1 != rep2 || !errors.Is(err2, err1) {
		t.Fatalf("second Close = (%p, %v), want the first's (%p, %v)", rep2, err2, rep1, err1)
	}
	checkCopyChain(t, a, b, c)

	// A third Close racing Submit and Abort must stay safe and give the
	// same answer.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rep, err := p.Close(); rep != rep1 || !errors.Is(err, err1) {
				t.Errorf("concurrent Close = (%p, %v)", rep, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Submit(prog, core.Options{}, JobConfig{}); !errors.Is(err, ErrPoolClosed) {
			t.Errorf("Submit on closed pool = %v, want ErrPoolClosed", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Abort(errors.New("late abort")) // no active jobs; must be a no-op
	}()
	wg.Wait()
}

func TestPoolSubmitClosedSentinel(t *testing.T) {
	p, err := NewPool(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ := buildCopyChain(t, 8)
	_, serr := p.Submit(prog, core.Options{}, JobConfig{Name: "tardy"})
	if !errors.Is(serr, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want errors.Is ErrPoolClosed", serr)
	}
	if !strings.Contains(serr.Error(), "tardy") {
		t.Fatalf("error %q does not name the job", serr)
	}
}

func TestPoolDeadlineAbortIsIsolated(t *testing.T) {
	p, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow := buildSleepChain(t, 2, 64, 2*time.Millisecond)
	fast, a, b, c := buildCopyChain(t, 64)
	jSlow, err := p.Submit(slow, core.Options{Grain: 1}, JobConfig{
		Name: "doomed", Deadline: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jFast, err := p.Submit(fast, core.Options{}, JobConfig{Name: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jFast.Wait(); err != nil {
		t.Fatalf("co-tenant failed: %v", err)
	}
	_, derr := jSlow.Wait()
	if !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline job error = %v, want errors.Is context.DeadlineExceeded", derr)
	}
	if !strings.Contains(derr.Error(), "doomed") {
		t.Fatalf("error %q does not name the job", derr)
	}
	if _, err := p.Close(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close error = %v, want the deadline abort", err)
	}
	checkCopyChain(t, a, b, c)
}

func TestPoolRetryRecoversInjectedError(t *testing.T) {
	for _, kind := range []fault.Kind{fault.GrainError, fault.GrainPanic} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			p, err := NewPool(Config{
				Workers: 4,
				Faults: &fault.Spec{Rules: []fault.Rule{{
					Kind: kind, Job: 0, Phase: 1, Granule: 7, Worker: -1, Count: 1,
				}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			prog, a, b, c := buildCopyChain(t, 32)
			clean, _, _, _ := buildCopyChain(t, 32)
			j, err := p.Submit(prog, core.Options{}, JobConfig{
				Name: "flaky", Retry: 2, Backoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			co, err := p.Submit(clean, core.Options{}, JobConfig{Name: "steady"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatalf("retried job failed: %v", err)
			}
			if got := j.Attempts(); got != 2 {
				t.Errorf("Attempts = %d, want 2", got)
			}
			if _, err := co.Wait(); err != nil {
				t.Fatalf("co-tenant failed: %v", err)
			}
			rep, err := p.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Retries != 1 {
				t.Errorf("Report.Retries = %d, want 1", rep.Retries)
			}
			if rep.Faults < 1 {
				t.Errorf("Report.Faults = %d, want >= 1", rep.Faults)
			}
			checkCopyChain(t, a, b, c)
		})
	}
}

func TestPoolRetryExhaustionSticks(t *testing.T) {
	p, err := NewPool(Config{
		Workers: 2,
		Faults: &fault.Spec{Rules: []fault.Rule{{
			Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 3, Worker: -1, Count: 10,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ := buildCopyChain(t, 16)
	j, err := p.Submit(prog, core.Options{}, JobConfig{
		Name: "cursed", Retry: 2, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "injected") {
		t.Fatalf("exhausted job error = %v, want the injected error", werr)
	}
	if got := j.Attempts(); got != 3 {
		t.Errorf("Attempts = %d, want 3 (original + 2 retries)", got)
	}
	if _, err := p.Close(); err == nil {
		t.Fatal("Close must surface the stuck job error")
	}
}

func TestPoolAdmissionSaturated(t *testing.T) {
	p, err := NewPool(Config{Workers: 2, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow := buildSleepChain(t, 2, 32, time.Millisecond)
	prog, _, _, _ := buildCopyChain(t, 16)
	j, err := p.Submit(slow, core.Options{Grain: 1}, JobConfig{Name: "hog"})
	if err != nil {
		t.Fatal(err)
	}
	_, serr := p.Submit(prog, core.Options{}, JobConfig{Name: "refused"})
	if !errors.Is(serr, ErrPoolSaturated) {
		t.Fatalf("saturated Submit = %v, want errors.Is ErrPoolSaturated", serr)
	}
	if !strings.Contains(serr.Error(), "refused") {
		t.Fatalf("error %q does not name the job", serr)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	// Slot freed: the pool admits again.
	j2, err := p.Submit(prog, core.Options{}, JobConfig{Name: "second"})
	if err != nil {
		t.Fatalf("post-drain Submit = %v", err)
	}
	if _, err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolAdmissionQueues(t *testing.T) {
	p, err := NewPool(Config{Workers: 2, MaxActive: 1, Queue: true})
	if err != nil {
		t.Fatal(err)
	}
	first := buildSleepChain(t, 2, 16, time.Millisecond)
	second, a, b, c := buildCopyChain(t, 32)
	j1, err := p.Submit(first, core.Options{Grain: 1}, JobConfig{Name: "front"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := p.Submit(second, core.Options{}, JobConfig{Name: "queued"})
	if err != nil {
		t.Fatalf("queued Submit = %v", err)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(); err != nil {
		t.Fatalf("queued job failed: %v", err)
	}
	if j1.end.After(j2.end) {
		t.Error("queued job finished before the job it queued behind started rundown")
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
}

func TestPoolQueuedJobDeadline(t *testing.T) {
	p, err := NewPool(Config{Workers: 2, MaxActive: 1, Queue: true})
	if err != nil {
		t.Fatal(err)
	}
	front := buildSleepChain(t, 2, 64, 2*time.Millisecond)
	prog, _, _, _ := buildCopyChain(t, 16)
	if _, err := p.Submit(front, core.Options{Grain: 1}, JobConfig{Name: "front"}); err != nil {
		t.Fatal(err)
	}
	// The queued job's deadline expires while it is still waiting for a
	// slot: queue wait counts against the deadline.
	j, err := p.Submit(prog, core.Options{}, JobConfig{
		Name: "impatient", Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := j.Wait(); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("queued job error = %v, want deadline exceeded", werr)
	}
	p.Close()
}

// TestPoolWedgedWorkerProbe is the stall-detector test under injected
// wedged workers: one wedged worker must trip the watchdog probe against
// the job it wedged — and only that job — while healthy co-tenants run
// to completion, under both the serial and sharded pool drivers.
func TestPoolWedgedWorkerProbe(t *testing.T) {
	for _, mk := range []executive.ManagerKind{executive.SerialManager, executive.ShardedManager} {
		t.Run(mk.String(), func(t *testing.T) {
			p, err := NewPool(Config{
				Workers: 4, Manager: mk,
				StallTimeout: 50 * time.Millisecond,
				Faults: &fault.Spec{Rules: []fault.Rule{{
					Kind: fault.WorkerWedge, Worker: -1, Job: -1, Phase: -1, Count: 1,
				}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			progA, _, _, _ := buildCopyChain(t, 64)
			progB, a, b, c := buildCopyChain(t, 64)
			jA, err := p.Submit(progA, core.Options{}, JobConfig{Name: "left", Weight: 1})
			if err != nil {
				t.Fatal(err)
			}
			jB, err := p.Submit(progB, core.Options{}, JobConfig{Name: "right", Weight: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, errA := jA.Wait()
			_, errB := jB.Wait()
			wedged := 0
			for _, werr := range []error{errA, errB} {
				if werr != nil {
					wedged++
					if !strings.Contains(werr.Error(), "wedged") {
						t.Errorf("failed job error = %v, want a wedge diagnosis", werr)
					}
				}
			}
			if wedged != 1 {
				t.Fatalf("%d jobs failed, want exactly the wedged one (errA=%v errB=%v)",
					wedged, errA, errB)
			}
			if errB == nil {
				checkCopyChain(t, a, b, c)
			}
			rep, _ := p.Close()
			if rep.Faults < 1 {
				t.Errorf("Report.Faults = %d, want >= 1", rep.Faults)
			}
		})
	}
}

// TestPoolWatchdogSparesSlowBatches: the watchdog's wedge signal is a
// job's last dispatch or completion, touched per task while the watchdog
// is armed — not its last visit to the executive. A healthy sharded job
// whose tasks each take over a quarter of the stall timeout goes sixteen
// tasks, several timeouts, between lock entries (Batch and the deque
// refill are both 16), beside a co-tenant the injected wedge does get
// failed, and must not be flagged with it.
func TestPoolWatchdogSparesSlowBatches(t *testing.T) {
	const timeout = 40 * time.Millisecond
	p, err := NewPool(Config{
		Workers: 2, Manager: executive.ShardedManager, DequeCap: 16, Batch: 16,
		StallTimeout: timeout,
		Faults: &fault.Spec{Rules: []fault.Rule{{
			Kind: fault.WorkerWedge, Worker: -1, Job: -1, Phase: -1, Count: 1,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wedgedProg, _, _, _ := buildCopyChain(t, 32)
	wedged, err := p.Submit(wedgedProg, core.Options{}, JobConfig{Name: "wedged"})
	if err != nil {
		t.Fatal(err)
	}
	// A wedge strikes a worker, whatever it runs: spend it on the first job.
	for p.plan.Fired(fault.WorkerWedge) == 0 {
		runtime.Gosched()
	}
	slow, err := p.Submit(buildSleepChain(t, 2, 16, timeout/4+2*time.Millisecond),
		core.Options{Grain: 1}, JobConfig{Name: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wedged.Wait(); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Errorf("wedged job error = %v, want a wedge diagnosis", err)
	}
	rep, err := slow.Wait()
	if err != nil {
		t.Fatalf("healthy job of slow tasks failed beside the wedge: %v", err)
	}
	if rep.Wall < 4*timeout {
		t.Errorf("slow job took %v: too short to have outlasted the %v stall timeout between flushes", rep.Wall, timeout)
	}
	p.Close()
}

// TestPoolWedgeRetryRecovers pairs the wedge with a retry budget: the
// watchdog fails the wedged attempt, the retry reruns it clean.
func TestPoolWedgeRetryRecovers(t *testing.T) {
	p, err := NewPool(Config{
		Workers:      2,
		StallTimeout: 40 * time.Millisecond,
		Faults: &fault.Spec{Rules: []fault.Rule{{
			Kind: fault.WorkerWedge, Worker: -1, Job: -1, Phase: -1, Count: 1,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, a, b, c := buildCopyChain(t, 32)
	j, err := p.Submit(prog, core.Options{}, JobConfig{
		Name: "wedge-retry", Retry: 2, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := j.Wait(); werr != nil {
		t.Fatalf("retried wedge failed: %v", werr)
	}
	if got := j.Attempts(); got < 2 {
		t.Errorf("Attempts = %d, want >= 2", got)
	}
	rep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries < 1 {
		t.Errorf("Report.Retries = %d, want >= 1", rep.Retries)
	}
	checkCopyChain(t, a, b, c)
}

func TestPoolPreemptBound(t *testing.T) {
	p, err := NewPool(Config{Workers: 4, PreemptBound: 2})
	if err != nil {
		t.Fatal(err)
	}
	progA, _, _, _ := buildCopyChain(t, 96)
	progB, _, _, _ := buildCopyChain(t, 96)
	jA, err := p.Submit(progA, core.Options{Grain: 32}, JobConfig{Name: "wide"})
	if err != nil {
		t.Fatal(err)
	}
	jB, err := p.Submit(progB, core.Options{Grain: 32}, JobConfig{Name: "tall"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := jB.Wait(); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxBackfillTask > 2 {
		t.Errorf("MaxBackfillTask = %d granules, want <= PreemptBound 2", rep.MaxBackfillTask)
	}
}

// TestPoolMixedCampaign drives a pool through a compound campaign —
// slow grains, a management delay, a dropped wakeup — and expects every
// job to finish with correct results: bounded degradation, no failures.
func TestPoolMixedCampaign(t *testing.T) {
	p, err := NewPool(Config{
		Workers:      4,
		StallTimeout: 50 * time.Millisecond,
		Faults: &fault.Spec{Rules: []fault.Rule{
			{Kind: fault.GrainSlow, Job: -1, Phase: -1, Granule: 5, Worker: -1, Factor: 3, Count: 2},
			{Kind: fault.MgmtDelay, Job: -1, Delay: 200, Count: 2},
			{Kind: fault.DropWakeup, Count: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	progA, a1, b1, c1 := buildCopyChain(t, 64)
	progB, a2, b2, c2 := buildCopyChain(t, 48)
	jA, err := p.Submit(progA, core.Options{}, JobConfig{Name: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	jB, err := p.Submit(progB, core.Options{}, JobConfig{Name: "beta", Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jA.Wait(); err != nil {
		t.Fatalf("alpha: %v", err)
	}
	if _, err := jB.Wait(); err != nil {
		t.Fatalf("beta: %v", err)
	}
	rep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults < 1 {
		t.Errorf("Report.Faults = %d, want >= 1", rep.Faults)
	}
	checkCopyChain(t, a1, b1, c1)
	checkCopyChain(t, a2, b2, c2)
}

// TestPoolCrashReapportionsHomes is the goroutine twin of the virtual
// engine's TestChaosCrashReapportionsHomes: three jobs of weights 2/1/1 on
// eight workers, workers 0–2 lost to WorkerCrash, and the home map read off
// the same share.Policy type. Every granule waits for a token, so the test
// decides which job advances: alpha, one granule at a time, until the three
// crashes have happened, then beta (32 granules against the others' 4096)
// to its end. The five survivors divide 2:2:1 while all three jobs run (the
// leftover goes to beta's priority) and 3:2 between alpha and gamma once
// beta is done; no retired worker is anybody's home.
func TestPoolCrashReapportionsHomes(t *testing.T) {
	var spec fault.Spec
	for w := 0; w < 3; w++ {
		spec.Rules = append(spec.Rules, fault.Rule{Kind: fault.WorkerCrash, Worker: w, Job: -1, Phase: -1})
	}
	// The jobs sit blocked on their tokens by design: no watchdog.
	p, err := NewPool(Config{Workers: 8, Faults: &spec, StallTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	var tokens [3]chan struct{}
	var jobs [3]*Job
	// blocked counts the workers inside a granule, waiting for its token; the
	// test takes one off as it hands a token over.
	var blocked atomic.Int32
	for i, jc := range []JobConfig{{Name: "alpha", Weight: 2}, {Name: "beta", Weight: 1, Priority: 1}, {Name: "gamma", Weight: 1}} {
		gate := make(chan struct{})
		tokens[i] = gate
		prog, err := core.NewProgram(&core.Phase{Name: "gated", Granules: []int{4096, 32, 4096}[i], Work: func(granule.ID) {
			blocked.Add(1)
			<-gate
		}})
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], err = p.Submit(prog, core.Options{Grain: 1}, jc); err != nil {
			t.Fatal(err)
		}
	}
	homes := func() (perJob [3]int, live int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		for i, j := range jobs {
			perJob[i] = j.pol.Homes()
		}
		for w := 0; w < 8; w++ {
			if h := p.pol.Home(w); p.pol.Retired(w) && h != nil {
				t.Errorf("retired worker %d is a home of job %d", w, h.ID)
			}
		}
		return perJob, p.pol.LiveWorkers()
	}

	// Workers 0-2 are homed on alpha under every apportionment the three
	// submits pass through, so the first task each takes — the one that
	// carries its crash — is alpha's. One token at a time, and only once
	// every live worker is back inside a granule, so the count of alpha
	// granules spent is small and the same on any host.
	deadline := time.Now().Add(20 * time.Second)
	for live := 8; live > 5; {
		for _, live = homes(); int(blocked.Load()) != live; _, live = homes() {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d live workers hold a task", blocked.Load(), live)
			}
			time.Sleep(50 * time.Microsecond)
		}
		if live > 5 {
			tokens[0] <- struct{}{}
			blocked.Add(-1)
		}
	}
	if got, _ := homes(); got != [3]int{2, 2, 1} {
		t.Errorf("alpha:beta:gamma hold %v of the five survivors, want [2 2 1]", got)
	}
	// Beta's home workers may still sit in an alpha granule they took while
	// alpha was the only job: alpha and gamma keep trickling until a released
	// worker has swept home-first into beta and run it out. The trickle is
	// bounded to a quarter of each job's granules, so that neither can run
	// out before beta's end is observed, however late that is.
	close(tokens[1])
	budget, timeout := [3]int{1024, 0, 1024}, time.After(time.Until(deadline))
	for done := false; !done; {
		var alpha, gamma chan struct{} // nil once its budget is spent
		if budget[0] > 0 {
			alpha = tokens[0]
		}
		if budget[2] > 0 {
			gamma = tokens[2]
		}
		select {
		case alpha <- struct{}{}:
			budget[0]--
		case gamma <- struct{}{}:
			budget[2]--
		case <-jobs[1].Done():
			done = true
		case <-timeout:
			t.Fatalf("beta not done with %v of the trickle left", budget)
		}
	}
	if _, err := jobs[1].Wait(); err != nil {
		t.Fatalf("beta: %v", err)
	}
	if got, live := homes(); got != [3]int{3, 0, 2} || live != 5 {
		t.Errorf("with beta done alpha:beta:gamma hold %v of %d survivors, want [3 0 2] of 5", got, live)
	}
	close(tokens[0])
	close(tokens[2])
	for _, j := range []*Job{jobs[0], jobs[2]} {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
	}
	rep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 3 {
		t.Errorf("Report.Faults = %d, want the 3 crashes", rep.Faults)
	}
}
