package tenant

// Tests for the job lifecycle: the transition table itself, the race the
// attempt object closes, and the seams between a retry and everything
// that can end a job for good — under every manager the pool can drive.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// reached counts the transitions the package's tests drive through
// move, so TestMain can hold the suite to the table: an edge no test
// reaches is either dead or untested.
var reached struct {
	sync.Mutex
	n [nStates][nStates]int
}

// probeVerdicts counts the all-parked probe's verdicts: idle found no job
// stalled, stalled found at least one.
var probeVerdicts struct{ idle, stalled atomic.Int64 }

func TestMain(m *testing.M) {
	moved = func(from, to State) {
		reached.Lock()
		reached.n[from][to]++
		reached.Unlock()
	}
	probed = func(stalled int) {
		if stalled == 0 {
			probeVerdicts.idle.Add(1)
		} else {
			probeVerdicts.stalled.Add(1)
		}
	}
	code := m.Run()
	// Only a run of the whole suite can be held to the whole table.
	whole := true
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			whole = false
		}
	}
	if code == 0 && whole {
		for from := range legal {
			for to, ok := range legal[from] {
				if ok && reached.n[from][to] == 0 {
					fmt.Fprintf(os.Stderr, "lifecycle: no test reached the legal transition %d -> %d\n", from, to)
					code = 1
				}
			}
		}
	}
	os.Exit(code)
}

// TestLifecycleTable: move accepts exactly the edges of the table, from
// exactly the state the job is in. (The jobs here never enter a pool, and
// their transitions are taken back out of the reached count.)
func TestLifecycleTable(t *testing.T) {
	try := func(at, from, to State) (ok bool) {
		j := &Job{}
		j.state.Store(uint32(at))
		defer func() {
			want := to
			if recover() != nil {
				ok, want = false, at
			}
			if got := j.State(); got != want {
				t.Errorf("move(%d -> %d) on a job in %d left it in %d", from, to, at, got)
			}
		}()
		move(j, from, to)
		reached.Lock()
		reached.n[from][to]--
		reached.Unlock()
		return true
	}
	edges := 0
	for from := State(0); int(from) < nStates; from++ {
		for to := State(0); int(to) < nStates; to++ {
			if got := try(from, from, to); got != legal[from][to] {
				t.Errorf("move(%d -> %d) allowed = %v, table says %v", from, to, got, legal[from][to])
			}
			if legal[from][to] {
				edges++
				// A caller wrong about where the job is must fail too.
				if wrong := (from + 1) % State(nStates); try(wrong, from, to) {
					t.Errorf("move(%d -> %d) accepted on a job in state %d", from, to, wrong)
				}
			}
		}
	}
	if edges != 7 {
		t.Errorf("table has %d edges, want the 7 of Queued→Running⇄Backoff→Done|Failed", edges)
	}
	for _, s := range []State{Done, Failed} {
		if legal[s] != [nStates]bool{} {
			t.Errorf("terminal state %v has outgoing edges %v", s, legal[s])
		}
	}
}

// TestPoolAbortDuringRetryRecompile is the regression test for the race
// between a retry's recompile and an abort: the retry timer used to store
// the new scheduler into the job outside the pool lock while Wait, released
// by an abort that landed in the backoff, read it — and the report paired
// the dead attempt's manager with the next attempt's scheduler. Under
// -race the parent commit reports it within a few rounds.
func TestPoolAbortDuringRetryRecompile(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 30
	}
	boom := errors.New("boom")
	for i := 0; i < rounds; i++ {
		p, err := NewPool(Config{
			Workers: 2,
			Faults: &fault.Spec{Rules: []fault.Rule{{
				Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 1, Worker: -1, Count: 1,
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The copy chain's shape (3 x 16384, a recompile worth racing) with
		// work that writes nothing: with no backoff a dead attempt's last
		// tasks are not ordered before the next attempt's.
		j, err := p.Submit(buildSleepChain(t, 3, 16384, 0), core.Options{Grain: 1}, JobConfig{Retry: 3})
		if err != nil {
			t.Fatal(err)
		}
		for j.Attempts() < 2 && j.State() < Done {
			runtime.Gosched()
		}
		j.Abort(boom)
		rep, werr := j.Wait()
		checkTerminal(t, j, werr)
		// One attempt, one report: the scheduler statistics and the totals
		// are the last attempt's, whichever that was.
		a := j.cur.Load()
		if tot := a.totals(); rep.Sched != a.sched.Stats() || (totals{rep.Compute, rep.Mgmt, rep.Tasks}) != tot {
			t.Fatalf("round %d: report stitched from two attempts: sched %+v compute %v mgmt %v tasks %d, attempt %d has %+v and %+v",
				i, rep.Sched, rep.Compute, rep.Mgmt, rep.Tasks, a.n, a.sched.Stats(), tot)
		}
		poolRep, _ := p.Close()
		if want := int64(j.Attempts() - 1); poolRep.Retries != want {
			t.Fatalf("round %d: Report.Retries = %d, job spent %d", i, poolRep.Retries, want)
		}
	}
}

// checkTerminal asserts a waited-for job's state agrees with the error
// Wait returned, and that its done channel is closed.
func checkTerminal(t *testing.T, j *Job, werr error) {
	t.Helper()
	want := Done
	if werr != nil {
		want = Failed
	}
	if got := j.State(); got != want {
		t.Errorf("job %q: state %d after Wait returned %v, want %d", j.Name(), got, werr, want)
	}
	select {
	case <-j.Done():
	default:
		t.Errorf("job %q: Wait returned with Done still open", j.Name())
	}
}

// awaitState spins until j reaches want, failing the test if j goes
// terminal elsewhere or never gets there.
func awaitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != want {
		if s := j.State(); s >= Done || time.Now().After(deadline) {
			t.Fatalf("job %q is in state %d, never reached %d", j.Name(), s, want)
		}
		runtime.Gosched()
	}
}

// seam is one lifecycle seam test's pool: built for the manager under
// test with a flight recorder, and torn down by finish, which checks what
// every seam must leave behind.
type seam struct {
	t      *testing.T
	p      *Pool
	rec    *trace.Recorder
	before int
	jobs   []*Job
}

// eachManager runs body once per manager kind the pool can drive.
func eachManager(t *testing.T, cfg Config, body func(s *seam)) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s := &seam{t: t, rec: trace.NewRecorder(trace.Meta{}, cfg.Workers), before: runtime.NumGoroutine()}
			c := cfg
			c.Manager, c.Trace = kind, s.rec
			p, err := NewPool(c)
			if err != nil {
				t.Fatal(err)
			}
			s.p = p
			body(s)
		})
	}
}

func (s *seam) submit(prog *core.Program, jc JobConfig) *Job {
	s.t.Helper()
	j, err := s.p.Submit(prog, core.Options{Grain: 1}, jc)
	if err != nil {
		s.t.Fatal(err)
	}
	s.jobs = append(s.jobs, j)
	return j
}

// finish closes the pool and checks the invariants of every seam: each
// job terminal in the state its error says, the pool's retry count equal
// to the attempts the jobs were given beyond their first, each job
// started exactly once per attempt that ran (so promoted from the queue at
// most once), and no goroutine — worker, watchdog, management loop or
// retry timer — left behind.
func (s *seam) finish() *Report {
	s.t.Helper()
	rep, _ := s.p.Close()
	var spent int64
	for _, j := range s.jobs {
		_, werr := j.Wait()
		checkTerminal(s.t, j, werr)
		spent += int64(j.Attempts() - 1)
	}
	if rep.Retries != spent {
		s.t.Errorf("Report.Retries = %d, the jobs' attempts add up to %d", rep.Retries, spent)
	}
	starts := make(map[int32]int)
	for _, e := range s.rec.Take().Events {
		if e.Kind == trace.KStart {
			starts[e.Job]++
		}
	}
	for _, j := range s.jobs {
		// An attempt cancelled in its backoff never started.
		if n, max := starts[int32(j.Index())], j.Attempts(); n > max || n < max-1 {
			s.t.Errorf("job %q started %d times over %d attempts", j.Name(), n, max)
		}
	}
	testutil.WaitGoroutines(s.t, s.before)
	return rep
}

// flaky is a fault plan failing job 0's first n attempts at their second
// granule.
func flaky(n int) *fault.Spec {
	return &fault.Spec{Rules: []fault.Rule{{
		Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 1, Worker: -1, Count: n,
	}}}
}

// TestPoolAbortDuringBackoff: an abort that finds the job between
// attempts retires it there and then — the retry is cancelled, Close does
// not wait out the timer, and the attempt that never ran is still counted
// as given.
func TestPoolAbortDuringBackoff(t *testing.T) {
	boom := errors.New("boom")
	eachManager(t, Config{Workers: 2, Faults: flaky(1)}, func(s *seam) {
		prog, _, _, _ := buildCopyChain(t, 64)
		j := s.submit(prog, JobConfig{Name: "flaky", Retry: 2, Backoff: time.Minute})
		awaitState(t, j, Backoff)
		j.Abort(boom)
		if _, err := j.Wait(); !errors.Is(err, boom) {
			t.Errorf("Wait = %v, want the abort error", err)
		}
		if got := j.Attempts(); got != 2 {
			t.Errorf("Attempts = %d, want 2 (the retry was spent, then cancelled)", got)
		}
		t0 := time.Now()
		if rep := s.finish(); rep.Retries != 1 {
			t.Errorf("Report.Retries = %d, want 1", rep.Retries)
		}
		if d := time.Since(t0); d > 10*time.Second {
			t.Errorf("Close took %v: it waited for a cancelled retry's timer", d)
		}
	})
}

// TestPoolDeadlineDuringBackoff: the deadline clock keeps running
// between attempts, and firing there is final.
func TestPoolDeadlineDuringBackoff(t *testing.T) {
	eachManager(t, Config{Workers: 2, Faults: flaky(1)}, func(s *seam) {
		prog, _, _, _ := buildCopyChain(t, 64)
		j := s.submit(prog, JobConfig{
			Name: "late", Retry: 2, Backoff: time.Minute, Deadline: 30 * time.Millisecond,
		})
		if _, err := j.Wait(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Wait = %v, want deadline exceeded", err)
		}
		if m, ok := j.DeadlineMargin(); !ok || m > 0 {
			t.Errorf("DeadlineMargin = %v, %v: want a miss", m, ok)
		}
		s.finish()
	})
}

// TestPoolAbortRacesFailingAttempt: Pool.Abort against a job whose every
// attempt fails at once, with retries to spare and no backoff — the abort
// lands while a worker is failing the attempt, while the job backs off, or
// while the next attempt starts, and must be final wherever it lands.
func TestPoolAbortRacesFailingAttempt(t *testing.T) {
	boom := errors.New("boom")
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		eachManager(t, Config{Workers: 2, Faults: flaky(1 << 20)}, func(s *seam) {
			// Work that writes nothing: with no backoff a dead attempt's last
			// tasks are still running when the next attempt starts.
			j := s.submit(buildSleepChain(t, 2, 64, 0), JobConfig{Name: "cursed", Retry: 1 << 20})
			for j.Attempts() < 2+i%5 {
				runtime.Gosched()
			}
			s.p.Abort(boom)
			select {
			case <-j.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("job survived Pool.Abort (state %d, %d attempts)", j.State(), j.Attempts())
			}
			if _, err := j.Wait(); !errors.Is(err, boom) {
				t.Errorf("Wait = %v, want the abort error", err)
			}
			s.finish()
		})
	}
}

// TestPoolCloseWithRetryPending: Close lets a pending retry run — the
// workers must not exit while a job is between attempts.
func TestPoolCloseWithRetryPending(t *testing.T) {
	eachManager(t, Config{Workers: 2, Faults: flaky(1)}, func(s *seam) {
		prog, a, b, c := buildCopyChain(t, 64)
		j := s.submit(prog, JobConfig{Name: "flaky", Retry: 1, Backoff: 20 * time.Millisecond})
		awaitState(t, j, Backoff)
		if rep := s.finish(); rep.Retries != 1 {
			t.Errorf("Report.Retries = %d, want 1", rep.Retries)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("retried job failed: %v", err)
		}
		checkCopyChain(t, a, b, c)
	})
}

// TestPoolAbortQueuedJob: a job aborted behind admission control retires
// without ever starting (Wait must not wait for a management goroutine
// that was never spawned), its whole life is queue wait, and the jobs
// behind it are promoted in order, once each.
func TestPoolAbortQueuedJob(t *testing.T) {
	boom := errors.New("boom")
	eachManager(t, Config{Workers: 2, MaxActive: 1, Queue: true}, func(s *seam) {
		release := make(chan struct{})
		gate, err := core.NewProgram(&core.Phase{
			Name: "gate", Granules: 2, Work: func(granule.ID) { <-release },
		})
		if err != nil {
			t.Fatal(err)
		}
		front := s.submit(gate, JobConfig{Name: "front"})
		prog1, _, _, _ := buildCopyChain(t, 16)
		prog2, a, b, c := buildCopyChain(t, 16)
		doomed := s.submit(prog1, JobConfig{Name: "doomed"})
		behind := s.submit(prog2, JobConfig{Name: "behind"})
		if doomed.State() != Queued || behind.State() != Queued {
			t.Fatalf("states %d, %d behind a full pool, want both queued", doomed.State(), behind.State())
		}
		doomed.Abort(boom)
		waited := make(chan error, 1)
		go func() {
			_, err := doomed.Wait()
			waited <- err
		}()
		select {
		case err := <-waited:
			if !errors.Is(err, boom) {
				t.Errorf("Wait = %v, want the abort error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Wait on a job aborted while queued never returned")
		}
		if behind.State() != Queued {
			t.Errorf("the job behind the aborted one is in state %d, want still queued", behind.State())
		}
		if doomed.QueueWait() <= 0 {
			t.Errorf("QueueWait = %v, want the job's whole life", doomed.QueueWait())
		}
		close(release)
		for _, j := range []*Job{front, behind} {
			if _, err := j.Wait(); err != nil {
				t.Fatalf("%s: %v", j.Name(), err)
			}
		}
		s.finish()
		checkCopyChain(t, a, b, c)
		tr, err := doomed.Trace()
		if err != nil || tr.Count(trace.KStart) != 0 || tr.Count(trace.KAbort) != 1 {
			t.Errorf("aborted-while-queued trace: %v, err %v; want one abort and no start", tr, err)
		}
	})
}
