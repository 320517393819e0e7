package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fault"
)

// contractSpy stands between the engine and a run's management model and
// checks, at the moment the engine asks, the parts of the model contract
// that hold at a call: see TestModelContract. It reads the model only
// through the interface.
type contractSpy struct {
	model
	t *testing.T
	s *mstate
	// refused marks a worker whose crash the model deferred at its current
	// ask; drops, refusals and releases count the calls.
	refused                   []bool
	drops, refusals, releases int
}

func (c *contractSpy) drop(ji int, at int64) {
	c.model.drop(ji, at)
	c.drops++
	if n := c.model.held(ji); n != 0 {
		c.t.Errorf("t=%d: job %d's attempt died and the model still holds %d of its tasks and completions", at, ji, n)
	}
}

func (c *contractSpy) holds(w int) bool {
	h := c.model.holds(w)
	if h {
		c.refused[w] = true
		c.refusals++
	}
	return h
}

func (c *contractSpy) ask(w int, at int64) {
	if c.s.pol.Retired(w) {
		c.t.Errorf("t=%d: the ask of retired worker %d reached the model (crash deferred at this ask: %v)", at, w, c.refused[w])
	}
	c.refused[w] = false
	c.model.ask(w, at)
}

func (c *contractSpy) release(w int, at int64) int64 {
	c.releases++
	if c.model.holds(w) {
		c.t.Errorf("t=%d: worker %d crashes while the model says it holds undelivered tasks", at, w)
	}
	if c.s.pol.Retired(w) {
		c.t.Errorf("t=%d: worker %d was retired before the model released its completions", at, w)
	}
	fin := c.model.release(w, at)
	if again := c.model.release(w, fin); again != fin {
		c.t.Errorf("t=%d: releasing worker %d twice charged the executive twice (%d, then %d): the first left completions behind", at, w, fin, again)
	}
	return fin
}

// atRest asserts what must be true of the model whenever no event is left:
// nothing claimable, nothing backlogged, nothing held of any job or by any
// worker — and so nothing the engine's recovery could still act on.
func (c *contractSpy) atRest(tag string) {
	c.t.Helper()
	if n := c.model.claimable(); n != 0 {
		c.t.Errorf("%s: %d tasks still claimable in the model", tag, n)
	}
	if c.model.backlog(false) {
		c.t.Errorf("%s: completions still backlogged in the model", tag)
	}
	for ji := range c.s.jobs {
		if n := c.model.held(ji); n != 0 {
			c.t.Errorf("%s: the model still holds %d tasks and completions of job %d", tag, n, ji)
		}
	}
	for w := 0; w < c.s.workers; w++ {
		if c.model.holds(w) {
			c.t.Errorf("%s: worker %d still holds undelivered tasks", tag, w)
		}
	}
	if c.s.refill(false) {
		c.t.Errorf("%s: refill still reports a source of events", tag)
	}
}

// spied builds the machine for jobs under cfg with a contractSpy around its
// model.
func spied(t *testing.T, jobs []JobSpec, cfg Config) (*mstate, *contractSpy) {
	t.Helper()
	s, err := newMstate(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spy := &contractSpy{model: s.m, t: t, s: s, refused: make([]bool, s.workers)}
	s.m = spy
	return s, spy
}

// TestModelContract states once, over all five model values and through
// the model interface alone, what the engine relies on wherever it asks
// the model instead of knowing it:
//
//   - when an attempt dies (drop) the model holds no task or completion of
//     that job afterwards;
//   - a worker's crash is deferred while the model says the worker holds
//     tasks only it can run — its ask goes on to the model, the worker stays
//     live — and when the crash goes through, the completions the worker
//     holds are applied before it retires, all of them;
//   - at the end of every run the model's extra availability and its backlog
//     are zero and it holds nothing;
//   - when the run loop reports a stall, refill — the one statement of what
//     an empty queue can still regenerate — reports nothing left.
func TestModelContract(t *testing.T) {
	campaigns := []struct {
		name  string
		rules []fault.Rule
		check func(t *testing.T, res *MultiResult, spy *contractSpy)
	}{
		{"grain-error-retry", []fault.Rule{
			{Kind: fault.GrainError, Job: 0, Phase: 1, Granule: 7, Worker: -1},
			{Kind: fault.GrainError, Job: 1, Phase: 2, Granule: 40, Worker: -1},
		}, func(t *testing.T, res *MultiResult, spy *contractSpy) {
			if res.Retries != 2 || spy.drops != 2 {
				t.Errorf("%d retries, %d drops, want 2 and 2: every dead attempt is dropped once", res.Retries, spy.drops)
			}
		}},
		{"worker-crash", []fault.Rule{
			{Kind: fault.WorkerCrash, Worker: 2, Job: -1, Phase: -1, After: 500},
			{Kind: fault.WorkerCrash, Worker: 5, Job: -1, Phase: -1, After: 2000},
		}, func(t *testing.T, res *MultiResult, spy *contractSpy) {
			if res.Faults != 2 || spy.releases != 2 {
				t.Errorf("%d crashes fired, %d releases, want 2 and 2: every crash releases first", res.Faults, spy.releases)
			}
			t.Logf("%d crash deferrals while a worker held tasks", spy.refusals)
		}},
	}
	for _, model := range chaosModels {
		for _, c := range campaigns {
			model, c := model, c
			t.Run(model.String()+"/"+c.name, func(t *testing.T) {
				spec := fault.Spec{Rules: c.rules}
				s, spy := spied(t, chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
				res, err := s.execute()
				if err != nil {
					t.Fatal(err)
				}
				for _, jr := range res.Jobs {
					if jr.Err != nil {
						t.Errorf("job %q failed: %v", jr.Name, jr.Err)
					}
				}
				c.check(t, res, spy)
				spy.atRest("end of run")
			})
		}
		model := model
		t.Run(model.String()+"/stall", func(t *testing.T) {
			// A machine whose every worker is gone before the first ask: the
			// asks die, the queue empties with both jobs unfinished. (The
			// rule never fires; it arms the plan that makes the engine look
			// for retired workers.)
			spec := fault.Spec{Rules: []fault.Rule{{Kind: fault.WorkerCrash, Worker: 0, Job: -1, Phase: -1, After: 1 << 60}}}
			s, spy := spied(t, chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
			for w := 0; w < s.workers; w++ {
				s.pol.RetireWorker(w)
			}
			if _, err := s.execute(); err == nil || !strings.Contains(err.Error(), "stalled") {
				t.Fatalf("err = %v, want a stall", err)
			}
			spy.atRest("stalled")
		})
	}
}
