package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/enable"
	"repro/internal/granule"
)

// TestCompletionSteadyStateAllocs gates the allocation-free completion
// path: after warm-up, dispatching and completing tasks of a two-phase
// chain allocates nothing per task, one completion at a time and in
// batches, on every mapping kind with a distinct release path. (The
// reverse-indirect and seam chains queue their released successors as
// many small descriptions, which grow the description slab once per 256;
// AllocsPerRun's integer average reads that as the 0 it amortizes to.)
func TestCompletionSteadyStateAllocs(t *testing.T) {
	const n = 1 << 12
	chains := []struct {
		name string
		spec *enable.Spec
		via  IdentityMode
	}{
		{"identity/conflict-queue", enable.NewIdentity(), IdentityConflictQueue},
		{"identity/table", enable.NewIdentity(), IdentityTable},
		{"universal", enable.NewUniversal(), 0},
		{"seam", enable.NewSeam(func(r granule.ID) []granule.ID {
			req := []granule.ID{r}
			if r > 0 {
				req = append(req, r-1)
			}
			if r < n-1 {
				req = append(req, r+1)
			}
			return req
		}), 0},
		{"reverse-indirect", enable.NewReverse(func(r granule.ID) []granule.ID {
			return []granule.ID{r, (r*7 + 3) % n}
		}), 0},
	}
	for _, c := range chains {
		for _, batch := range []int{1, 4} {
			prog := mustProgram(t,
				&Phase{Name: "a", Granules: n, Enable: c.spec},
				&Phase{Name: "b", Granules: n},
			)
			s, err := New(prog, Options{
				Workers: 4, Grain: 2, Overlap: true, IdentityVia: c.via, Costs: DefaultCosts(),
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			for s.HasDeferred() {
				s.DeferredMgmt()
			}
			buf := make([]Task, 0, batch)
			step := func() {
				ts, _ := s.NextTasks(buf[:0], batch)
				if len(ts) != batch {
					t.Fatalf("%s: ran out of tasks", c.name)
				}
				if batch == 1 {
					s.Complete(ts[0])
				} else {
					s.CompleteBatch(ts)
				}
			}
			for i := 0; i < 128; i++ {
				step()
			}
			if got := testing.AllocsPerRun(256, step); got != 0 {
				t.Errorf("%s, %d completions per call: %v allocations per call, want 0", c.name, batch, got)
			}
			if err := s.Check(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// randomMonotoneProgram builds a random chain over every mapping kind,
// with the indirect maps order-preserving: completing current granules in
// ascending order enables successor granules in ascending order.
func randomMonotoneProgram(t *testing.T, rng *rand.Rand) *Program {
	t.Helper()
	nPhases := 2 + rng.Intn(4)
	phases := make([]*Phase, nPhases)
	for i := range phases {
		phases[i] = &Phase{Name: string(rune('a' + i)), Granules: 1 + rng.Intn(48)}
	}
	for i := 0; i < nPhases-1; i++ {
		nPred, nSucc := phases[i].Granules, phases[i+1].Granules
		switch rng.Intn(5) {
		case 0: // null
		case 1:
			phases[i].Enable = enable.NewUniversal()
		case 2:
			phases[i].Enable = enable.NewIdentity()
		case 3:
			imap := make([]granule.ID, nPred)
			for p := range imap {
				imap[p] = granule.ID(p * nSucc / nPred)
			}
			phases[i].Enable = enable.NewForwardIMAP(imap)
		case 4:
			fan := 1 + rng.Intn(3)
			phases[i].Enable = enable.NewSeam(func(r granule.ID) []granule.ID {
				var req []granule.ID
				for p := int(r); p < int(r)+fan && p < nPred; p++ {
					req = append(req, granule.ID(p))
				}
				return req
			})
		}
	}
	return mustProgram(t, phases...)
}

// TestCompleteBatchMatchesComplete drives two schedulers over the same
// random program in lock-step — one applying every completion with
// Complete, the other applying the same completions as CompleteBatch
// calls over a random partition — and requires that they stay
// indistinguishable to a driver: every subsequent NextTasks call returns
// identical tasks, and the per-task and per-granule statistics agree. It
// guards the scheduler's completion scratch sets: a set still in use when
// a nested release or phase-window advance refills it would lose or
// duplicate successor granules, and the dispatch streams would diverge.
//
// Grain is 1, the mappings are order-preserving and each step's
// completions are applied in (phase, granule) order, so that the one
// difference CompleteBatch is designed to make — it queues a group's
// released successors as coalesced descriptions, fewer and larger —
// cannot reorder granules. That difference is also why Releases, Splits
// and the costs that count queue insertions are not compared: fewer of
// them is the point of batching. Successors are released by one mechanism
// only — the enablement table, no conflict queues, no elevated subset —
// because a group applies each mechanism's releases for all its tasks
// before the next mechanism's, where Complete interleaves them task by
// task; TestQuickRandomPrograms covers those, and arbitrary maps, under
// CompleteBatch against the dependence checker.
func TestCompleteBatchMatchesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(19860812))
	for iter := 0; iter < 300; iter++ {
		prog := randomMonotoneProgram(t, rng)
		workers := 1 + rng.Intn(8)
		opt := Options{
			Workers:       workers,
			Grain:         1,
			Overlap:       rng.Intn(6) != 0,
			IdentityVia:   IdentityTable,
			ReleasedAhead: rng.Intn(2) == 0,
			InlineMaps:    rng.Intn(2) == 0,
			Costs:         DefaultCosts(),
		}
		one, err := New(prog, opt)
		if err != nil {
			t.Fatal(err)
		}
		bat, _ := New(prog, opt)
		one.Start()
		bat.Start()

		var inflight []Task
		for step := 0; !one.Done(); step++ {
			// Refill both to `workers` in flight; the streams must agree.
			for len(inflight) < workers {
				want := workers - len(inflight)
				a, _ := one.NextTasks(nil, want)
				b, _ := bat.NextTasks(nil, want)
				if len(a) != len(b) {
					t.Fatalf("iter %d step %d: one-by-one dispatched %v, batched %v", iter, step, a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("iter %d step %d: dispatch %d differs: one-by-one %v, batched %v", iter, step, i, a[i], b[i])
					}
				}
				inflight = append(inflight, a...)
				if len(a) < want {
					if !one.HasDeferred() {
						break
					}
					one.DeferredMgmt()
					bat.DeferredMgmt()
				}
			}
			if len(inflight) == 0 {
				t.Fatalf("iter %d step %d: nothing in flight, not done", iter, step)
			}
			// Complete a random subset, in (phase, granule) order.
			rng.Shuffle(len(inflight), func(i, j int) { inflight[i], inflight[j] = inflight[j], inflight[i] })
			k := 1 + rng.Intn(len(inflight))
			done := inflight[:k]
			sort.Slice(done, func(i, j int) bool {
				if done[i].Phase != done[j].Phase {
					return done[i].Phase < done[j].Phase
				}
				return done[i].Run.Lo < done[j].Run.Lo
			})
			for _, task := range done {
				one.Complete(task)
			}
			for rest := done; len(rest) > 0; {
				cut := 1 + rng.Intn(len(rest))
				bat.CompleteBatch(rest[:cut])
				rest = rest[cut:]
			}
			inflight = append(inflight[:0], inflight[k:]...)
			for _, s := range []*Scheduler{one, bat} {
				if err := s.Check(); err != nil {
					t.Fatalf("iter %d step %d: %v", iter, step, err)
				}
			}
			if one.Done() != bat.Done() || one.CurrentPhase() != bat.CurrentPhase() || one.Ready() != bat.Ready() {
				t.Fatalf("iter %d step %d: one-by-one at phase %d with %d ready, batched at phase %d with %d ready",
					iter, step, one.CurrentPhase(), one.Ready(), bat.CurrentPhase(), bat.Ready())
			}
		}
		a, b := one.Stats(), bat.Stats()
		// Blank what coalescing is meant to change.
		for _, st := range []*Stats{&a, &b} {
			st.Releases, st.Splits = 0, 0
			st.DispatchCost, st.SplitCost = 0, 0
		}
		if a != b {
			t.Fatalf("iter %d: statistics differ\none-by-one %+v\nbatched    %+v", iter, a, b)
		}
	}
}

// TestIdentityCompletionStraddlingConflictQueueEdge covers the one shape
// the per-run identity completion path cannot decide per run: a merged
// completed run only part of which is conflict-queue managed. A task of
// phase b dispatched while b was still overlapped has no attached
// successor when b becomes current and the b->c pair is wired — it
// releases through the table — while its neighbour, queued at that
// moment, releases through its conflict queue. Completed in one batch the
// two coalesce into a single run straddling the edge, and the scheduler
// must charge and release exactly what completing them one at a time
// does.
func TestIdentityCompletionStraddlingConflictQueueEdge(t *testing.T) {
	setup := func() (*Scheduler, []Task) {
		prog := mustProgram(t,
			&Phase{Name: "a", Granules: 8, Enable: enable.NewIdentity()},
			&Phase{Name: "b", Granules: 8, Enable: enable.NewIdentity()},
			&Phase{Name: "c", Granules: 8},
		)
		s, err := New(prog, Options{
			Workers: 4, Grain: 2, Overlap: true, IdentityVia: IdentityConflictQueue, Costs: DefaultCosts(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		next := func(phase int, lo, hi granule.ID) Task {
			t.Helper()
			task, _, ok := s.NextTask()
			if !ok || int(task.Phase) != phase || task.Run != granule.R(lo, hi) {
				t.Fatalf("dispatched %v (ok=%v), want phase %d [%d,%d)", task, ok, phase, lo, hi)
			}
			return task
		}
		a := []Task{next(0, 0, 2), next(0, 2, 4), next(0, 4, 6), next(0, 6, 8)}
		s.Complete(a[0])
		s.Complete(a[1])
		early := next(1, 0, 2) // leaves while b is only overlapped
		s.Complete(a[2])
		s.Complete(a[3])      // a done: b is current, b->c wired around early
		late := next(1, 2, 4) // carries its successors
		return s, []Task{early, late}
	}

	one, ts := setup()
	base := one.Stats().EnableTouches
	one.Complete(ts[0])
	one.Complete(ts[1])
	bat, ts := setup()
	bat.CompleteBatch(ts)

	for name, s := range map[string]*Scheduler{"one at a time": one, "batched": bat} {
		if err := s.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Only b's granules 0 and 1 went through the table; 2 and 3 were
		// released by their conflict queue, uncharged.
		if got := s.Stats().EnableTouches - base; got != 2 {
			t.Errorf("%s: %d enablement touches charged, want 2", name, got)
		}
		// c's first four granules are now computable, exactly once each
		// (the double-dispatch guard panics otherwise).
		var succ granule.Set
		for {
			task, _, ok := s.NextTask()
			if !ok {
				break
			}
			if task.Phase == 2 {
				succ.AddRange(task.Run)
			}
		}
		if want := granule.NewSet(granule.R(0, 4)); !succ.Equal(want) {
			t.Errorf("%s: phase c granules %v became computable, want %v", name, &succ, want)
		}
	}
	if a, b := one.Stats(), bat.Stats(); a.EnableTouches != b.EnableTouches || a.CompleteCost != b.CompleteCost {
		t.Errorf("statistics differ: one at a time %+v, batched %+v", a, b)
	}
}

// TestDoubleCompletionOfPartRunPanics: a completion any granule of which is
// already complete panics, on Complete and on a fused CompleteBatch group
// alike — not only a completion whose whole run already completed, which
// would let nComplete overrun the phase and release successors early.
func TestDoubleCompletionOfPartRunPanics(t *testing.T) {
	for _, batched := range []bool{false, true} {
		prog := mustProgram(t, &Phase{Name: "a", Granules: 16})
		s, err := New(prog, Options{Workers: 2, Grain: 4, Costs: DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		ts, _ := s.NextTasks(nil, 2)
		s.phases[0].completed.set(granule.R(ts[1].Run.Lo+1, ts[1].Run.Lo+2)) // one granule of the second task
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("batched=%v: completing %v with one granule already complete did not panic", batched, ts[1])
				}
			}()
			if batched {
				s.CompleteBatch(ts)
			} else {
				s.Complete(ts[1])
			}
		}()
	}
}
