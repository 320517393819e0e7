package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/queue"
)

// traceEvent records one driver-visible scheduler action.
type traceEvent struct {
	dispatch bool // true = dispatch, false = completion
	task     Task
}

// depChecker validates dependence order during a driver run.
type depChecker struct {
	t    *testing.T
	prog *Program
	// requires[i][r] = granules of phase i-1 that must complete before
	// granule r of phase i may be dispatched (nil slice = none).
	requires  []map[granule.ID][]granule.ID
	completed []map[granule.ID]bool
	phaseDone []bool
}

func newDepChecker(t *testing.T, prog *Program) *depChecker {
	c := &depChecker{t: t, prog: prog}
	c.requires = make([]map[granule.ID][]granule.ID, len(prog.Phases))
	c.completed = make([]map[granule.ID]bool, len(prog.Phases))
	c.phaseDone = make([]bool, len(prog.Phases))
	for i := range prog.Phases {
		c.completed[i] = make(map[granule.ID]bool)
		c.phaseDone[i] = prog.Phases[i].Granules == 0
	}
	for i := 1; i < len(prog.Phases); i++ {
		prev := prog.Phases[i-1]
		cur := prog.Phases[i]
		req := make(map[granule.ID][]granule.ID)
		spec := prev.Enable
		kind := enable.Null
		if spec != nil {
			kind = spec.Kind
		}
		switch kind {
		case enable.Null:
			all := granule.Span(prev.Granules).IDs()
			for r := 0; r < cur.Granules; r++ {
				req[granule.ID(r)] = all
			}
		case enable.Universal:
			// none
		case enable.Identity:
			for r := 0; r < cur.Granules && r < prev.Granules; r++ {
				req[granule.ID(r)] = []granule.ID{granule.ID(r)}
			}
		case enable.ForwardIndirect:
			for p := 0; p < prev.Granules; p++ {
				for _, r := range spec.Forward(granule.ID(p)) {
					req[r] = append(req[r], granule.ID(p))
				}
			}
		case enable.ReverseIndirect, enable.Seam:
			for r := 0; r < cur.Granules; r++ {
				req[granule.ID(r)] = append([]granule.ID(nil), spec.Requires(granule.ID(r))...)
			}
		}
		c.requires[i] = req
	}
	return c
}

func (c *depChecker) onDispatch(task Task) {
	pi := int(task.Phase)
	// Window invariant: all phases before pi-1 must be fully complete.
	for j := 0; j < pi-1; j++ {
		if !c.phaseDone[j] {
			c.t.Fatalf("dispatch %v while phase %d incomplete (window violation)", task, j)
		}
	}
	if c.requires[pi] == nil {
		return
	}
	task.Run.Each(func(r granule.ID) {
		for _, q := range c.requires[pi][r] {
			if !c.completed[pi-1][q] {
				c.t.Fatalf("dispatch of %d:%d before required %d:%d completed", pi, r, pi-1, q)
			}
		}
	})
}

func (c *depChecker) onComplete(task Task) {
	pi := int(task.Phase)
	task.Run.Each(func(g granule.ID) { c.completed[pi][g] = true })
	if len(c.completed[pi]) == c.prog.Phases[pi].Granules {
		c.phaseDone[pi] = true
	}
}

// runDriver executes the scheduler with `workers` logical slots. rng nil
// means FIFO completion order; otherwise random. It validates dependences
// and exactly-once dispatch throughout, returning the full trace.
func runDriver(t *testing.T, s *Scheduler, workers int, rng *rand.Rand) []traceEvent {
	t.Helper()
	return drive(t, s, workers, rng, false)
}

// drive is runDriver's body. With batched set (rng must be non-nil) each
// step completes a random number of in-flight tasks in one CompleteBatch
// call instead of one task with Complete.
func drive(t *testing.T, s *Scheduler, workers int, rng *rand.Rand, batched bool) []traceEvent {
	t.Helper()
	chk := newDepChecker(t, s.Program())
	dispatched := make([]map[granule.ID]bool, len(s.Program().Phases))
	for i := range dispatched {
		dispatched[i] = make(map[granule.ID]bool)
	}
	var trace []traceEvent
	var inflight []Task
	s.Start()
	for !s.Done() {
		for len(inflight) < workers {
			task, _, ok := s.NextTask()
			if !ok {
				// Idle worker, idle executive: absorb deferred
				// management work (successor splitting, incremental
				// composite-map construction) and retry.
				if s.HasDeferred() {
					s.DeferredMgmt()
					continue
				}
				break
			}
			task.Run.Each(func(g granule.ID) {
				if dispatched[task.Phase][g] {
					t.Fatalf("granule %d:%d dispatched twice", task.Phase, g)
				}
				dispatched[task.Phase][g] = true
			})
			chk.onDispatch(task)
			trace = append(trace, traceEvent{dispatch: true, task: task})
			inflight = append(inflight, task)
		}
		if len(inflight) == 0 {
			if s.Done() {
				break
			}
			t.Fatalf("deadlock: nothing in flight, scheduler not done (phase %d)", s.CurrentPhase())
		}
		idx := 0
		if rng != nil {
			idx = rng.Intn(len(inflight))
		}
		task := inflight[idx]
		inflight = append(inflight[:idx], inflight[idx+1:]...)
		chk.onComplete(task)
		trace = append(trace, traceEvent{dispatch: false, task: task})
		if batched {
			rng.Shuffle(len(inflight), func(i, j int) { inflight[i], inflight[j] = inflight[j], inflight[i] })
			k := rng.Intn(len(inflight) + 1)
			batch := append([]Task{task}, inflight[:k]...)
			inflight = inflight[k:]
			for _, bt := range batch[1:] {
				chk.onComplete(bt)
				trace = append(trace, traceEvent{dispatch: false, task: bt})
			}
			s.CompleteBatch(batch)
		} else {
			s.Complete(task)
		}
		if err := s.Check(); err != nil {
			t.Fatalf("invariant violated after %v: %v", task, err)
		}
	}
	// Everything dispatched and completed exactly once.
	for i, ph := range s.Program().Phases {
		if len(dispatched[i]) != ph.Granules {
			t.Fatalf("phase %d: dispatched %d of %d granules", i, len(dispatched[i]), ph.Granules)
		}
		if len(chk.completed[i]) != ph.Granules {
			t.Fatalf("phase %d: completed %d of %d granules", i, len(chk.completed[i]), ph.Granules)
		}
	}
	return trace
}

func mustProgram(t *testing.T, phases ...*Phase) *Program {
	t.Helper()
	p, err := NewProgram(phases...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func firstSuccessorDispatchBeforePredDone(trace []traceEvent, pred, succ granule.PhaseID) bool {
	predDone := 0
	for _, ev := range trace {
		if !ev.dispatch && ev.task.Phase == pred {
			predDone += ev.task.Run.Len()
		}
		if ev.dispatch && ev.task.Phase == succ {
			return true // saw successor dispatch; pred completions so far counted
		}
	}
	return false
}

// countSuccDispatchesBeforePredDone counts successor-phase granules
// dispatched strictly before the predecessor phase fully completed.
func countSuccDispatchesBeforePredDone(trace []traceEvent, prog *Program, pred, succ granule.PhaseID) int {
	predTotal := prog.Phases[pred].Granules
	predDone := 0
	n := 0
	for _, ev := range trace {
		if !ev.dispatch && ev.task.Phase == pred {
			predDone += ev.task.Run.Len()
		}
		if ev.dispatch && ev.task.Phase == succ && predDone < predTotal {
			n += ev.task.Run.Len()
		}
	}
	return n
}

func TestBarrierSequential(t *testing.T) {
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 20, Enable: enable.NewUniversal()},
		&Phase{Name: "b", Granules: 20, Enable: enable.NewIdentity()},
		&Phase{Name: "c", Granules: 20},
	)
	s, err := New(prog, Options{Workers: 4, Grain: 3, Overlap: false, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	trace := runDriver(t, s, 4, nil)
	for _, pair := range [][2]granule.PhaseID{{0, 1}, {1, 2}} {
		if n := countSuccDispatchesBeforePredDone(trace, prog, pair[0], pair[1]); n != 0 {
			t.Errorf("barrier mode overlapped phases %d->%d (%d granules early)", pair[0], pair[1], n)
		}
	}
	if !s.Done() {
		t.Fatal("not done")
	}
}

func TestUniversalOverlap(t *testing.T) {
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 12, Enable: enable.NewUniversal()},
		&Phase{Name: "b", Granules: 12},
	)
	s, _ := New(prog, Options{Workers: 4, Grain: 2, Overlap: true, Costs: DefaultCosts()})
	trace := runDriver(t, s, 4, nil)
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n == 0 {
		t.Error("universal overlap produced no early successor dispatches")
	}
}

func TestUniversalBackgroundOrdering(t *testing.T) {
	// With one worker and FIFO completion, background successor work must
	// not displace current-phase work: phase b granules only appear after
	// all of phase a is queued out.
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 6, Enable: enable.NewUniversal()},
		&Phase{Name: "b", Granules: 6},
	)
	s, _ := New(prog, Options{Workers: 1, Grain: 1, Overlap: true, Costs: DefaultCosts()})
	trace := runDriver(t, s, 1, nil)
	seenB := false
	for _, ev := range trace {
		if !ev.dispatch {
			continue
		}
		if ev.task.Phase == 1 {
			seenB = true
		}
		if ev.task.Phase == 0 && seenB {
			t.Fatal("current-phase work dispatched after background successor work with a non-empty queue")
		}
	}
}

func identityProgram(t *testing.T, n int) *Program {
	return mustProgram(t,
		&Phase{Name: "a", Granules: n, Enable: enable.NewIdentity()},
		&Phase{Name: "b", Granules: n},
	)
}

func TestIdentityOverlapConflictQueue(t *testing.T) {
	prog := identityProgram(t, 16)
	s, _ := New(prog, Options{
		Workers: 4, Grain: 2, Overlap: true,
		IdentityVia: IdentityConflictQueue, Costs: DefaultCosts(),
	})
	trace := runDriver(t, s, 4, nil)
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n == 0 {
		t.Error("identity overlap (conflict queue) produced no early successor dispatches")
	}
}

func TestIdentityOverlapTable(t *testing.T) {
	prog := identityProgram(t, 16)
	s, _ := New(prog, Options{
		Workers: 4, Grain: 2, Overlap: true,
		IdentityVia: IdentityTable, Costs: DefaultCosts(),
	})
	trace := runDriver(t, s, 4, nil)
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n == 0 {
		t.Error("identity overlap (table) produced no early successor dispatches")
	}
}

// TestIdentityMechanismsAgree: the conflict-queue and table mechanisms must
// produce the same dispatch trace (they differ only in cost profile).
func TestIdentityMechanismsAgree(t *testing.T) {
	for _, workers := range []int{1, 3, 5} {
		prog1 := identityProgram(t, 24)
		prog2 := identityProgram(t, 24)
		opt := Options{Workers: workers, Grain: 4, Overlap: true, Costs: DefaultCosts()}
		opt.IdentityVia = IdentityConflictQueue
		s1, _ := New(prog1, opt)
		tr1 := runDriver(t, s1, workers, nil)
		opt.IdentityVia = IdentityTable
		s2, _ := New(prog2, opt)
		tr2 := runDriver(t, s2, workers, nil)
		if len(tr1) != len(tr2) {
			t.Fatalf("workers=%d: trace lengths differ: %d vs %d", workers, len(tr1), len(tr2))
		}
		for i := range tr1 {
			if tr1[i].dispatch != tr2[i].dispatch ||
				tr1[i].task.Phase != tr2[i].task.Phase ||
				tr1[i].task.Run != tr2[i].task.Run {
				t.Fatalf("workers=%d: traces diverge at %d: %+v vs %+v", workers, i, tr1[i], tr2[i])
			}
		}
	}
}

func TestForwardOverlap(t *testing.T) {
	n := 16
	imap := make([]granule.ID, n)
	for p := range imap {
		imap[p] = granule.ID(p / 2)
	}
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: n, Enable: enable.NewForwardIMAP(imap)},
		&Phase{Name: "b", Granules: n}, // granules n/2.. have no enabler: ready at start
	)
	s, _ := New(prog, Options{Workers: 4, Grain: 2, Overlap: true, Costs: DefaultCosts()})
	trace := runDriver(t, s, 4, nil)
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n == 0 {
		t.Error("forward overlap produced no early successor dispatches")
	}
}

func TestReverseOverlapWithElevation(t *testing.T) {
	n := 32
	spec := enable.NewReverse(func(r granule.ID) []granule.ID {
		// successor r requires the tail-end current granules — without
		// elevation these are dispatched last.
		return []granule.ID{granule.ID(n-1) - r}
	})
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: n, Enable: spec},
		&Phase{Name: "b", Granules: n},
	)
	s, _ := New(prog, Options{
		Workers: 2, Grain: 4, Overlap: true, Elevate: true, SubsetSize: 4,
		Costs: DefaultCosts(),
	})
	s.Start()
	// Composite-map construction is deferred to executive idle time; model
	// an idle executive by draining the deferred queue before dispatching.
	if !s.HasDeferred() {
		t.Fatal("indirect overlap did not defer composite-map construction")
	}
	for {
		if _, ok := s.DeferredMgmt(); !ok {
			break
		}
	}
	// The first dispatched task must now contain elevated granules: the
	// preds of subset {0,1,2,3} are {n-1, n-2, n-3, n-4}.
	first, _, ok := s.NextTask()
	if !ok {
		t.Fatal("no task after deferred build")
	}
	if first.Run.Lo < granule.ID(n-4) {
		t.Errorf("elevation did not promote enabling granules first: first task %v", first)
	}
	// Drain the rest with a two-slot driver loop, validating dependences.
	chk := newDepChecker(t, prog)
	chk.onDispatch(first)
	inflight := []Task{first}
	trace := []traceEvent{{dispatch: true, task: first}}
	for !s.Done() {
		for len(inflight) < 2 {
			task, _, ok := s.NextTask()
			if !ok {
				break
			}
			chk.onDispatch(task)
			trace = append(trace, traceEvent{dispatch: true, task: task})
			inflight = append(inflight, task)
		}
		if len(inflight) == 0 {
			t.Fatal("deadlock")
		}
		task := inflight[0]
		inflight = inflight[1:]
		chk.onComplete(task)
		s.Complete(task)
		trace = append(trace, traceEvent{dispatch: false, task: task})
	}
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n == 0 {
		t.Error("reverse overlap with elevation produced no early successor dispatches")
	}
}

func TestReverseOverlapWithoutElevation(t *testing.T) {
	n := 16
	spec := enable.NewReverse(func(r granule.ID) []granule.ID {
		return []granule.ID{r, (r + 1) % granule.ID(n)}
	})
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: n, Enable: spec},
		&Phase{Name: "b", Granules: n},
	)
	s, _ := New(prog, Options{Workers: 2, Grain: 2, Overlap: true, Elevate: false, Costs: DefaultCosts()})
	runDriver(t, s, 2, nil)
}

func TestNullSerialAction(t *testing.T) {
	calls := 0
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 8},
		&Phase{Name: "b", Granules: 8, SerialBefore: func() { calls++ }, SerialCost: 5},
	)
	s, _ := New(prog, Options{Workers: 2, Grain: 2, Overlap: true, Costs: DefaultCosts()})
	trace := runDriver(t, s, 2, nil)
	if calls != 1 {
		t.Errorf("serial action ran %d times, want 1", calls)
	}
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n != 0 {
		t.Errorf("null mapping overlapped anyway (%d granules)", n)
	}
	if s.Stats().SerialCost != 5 {
		t.Errorf("SerialCost = %d, want 5", s.Stats().SerialCost)
	}
}

func TestZeroGranulePhases(t *testing.T) {
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 0, Enable: enable.NewUniversal()},
		&Phase{Name: "b", Granules: 4, Enable: enable.NewUniversal()},
		&Phase{Name: "c", Granules: 0},
	)
	s, _ := New(prog, Options{Workers: 2, Grain: 2, Overlap: true, Costs: DefaultCosts()})
	runDriver(t, s, 2, nil)
	if !s.Done() {
		t.Fatal("not done")
	}
}

func TestAllZeroGranules(t *testing.T) {
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 0},
		&Phase{Name: "b", Granules: 0},
	)
	s, _ := New(prog, Options{Workers: 1, Overlap: true, Costs: DefaultCosts()})
	s.Start()
	if !s.Done() {
		t.Fatal("program of empty phases should complete at Start")
	}
}

func TestDeferredSuccessorSplit(t *testing.T) {
	prog := identityProgram(t, 32)
	s, _ := New(prog, Options{
		Workers: 4, Grain: 4, Overlap: true,
		IdentityVia: IdentityConflictQueue, SuccSplit: SuccSplitDeferred,
		Costs: DefaultCosts(),
	})
	trace := runDriver(t, s, 4, nil)
	if s.Stats().DeferredItems == 0 {
		t.Error("deferred mode queued no successor-splitting tasks")
	}
	if n := countSuccDispatchesBeforePredDone(trace, prog, 0, 1); n == 0 {
		t.Error("deferred successor splitting produced no early successor dispatches")
	}
}

func TestPresplitPolicy(t *testing.T) {
	prog := mustProgram(t, &Phase{Name: "a", Granules: 20})
	s, _ := New(prog, Options{Workers: 2, Grain: 4, Split: SplitPre, Costs: DefaultCosts()})
	s.Start()
	if got := s.Stats().Splits; got != 4 { // 20/4 = 5 chunks = 4 splits
		t.Errorf("presplit splits = %d, want 4", got)
	}
	for {
		task, _, ok := s.NextTask()
		if !ok {
			break
		}
		if task.Run.Len() > 4 {
			t.Errorf("presplit task exceeds grain: %v", task)
		}
		s.Complete(task)
	}
	if !s.Done() {
		t.Fatal("not done")
	}
}

func TestReleasedAheadOption(t *testing.T) {
	// Default (released behind): with one worker and FIFO completion, all
	// of phase 0 is dispatched before any of phase 1 — released successor
	// work sits behind remaining normal work.
	prog := identityProgram(t, 8)
	s, _ := New(prog, Options{Workers: 1, Grain: 1, Overlap: true, Costs: DefaultCosts()})
	trace := runDriver(t, s, 1, nil)
	phase0Done := false
	doneCount := 0
	for _, ev := range trace {
		if !ev.dispatch && ev.task.Phase == 0 {
			doneCount += ev.task.Run.Len()
			phase0Done = doneCount == 8
		}
		if ev.dispatch && ev.task.Phase == 1 && !phase0Done {
			t.Fatal("default policy dispatched successor before current phase drained")
		}
	}

	// ReleasedAhead (PAX conflict-release priority): successor granules
	// preempt remaining current-phase work.
	prog2 := identityProgram(t, 8)
	s2, _ := New(prog2, Options{
		Workers: 1, Grain: 1, Overlap: true, ReleasedAhead: true,
		Costs: DefaultCosts(),
	})
	trace2 := runDriver(t, s2, 1, nil)
	if n := countSuccDispatchesBeforePredDone(trace2, prog2, 0, 1); n == 0 {
		t.Error("ReleasedAhead produced no early successor dispatches")
	}
	_ = firstSuccessorDispatchBeforePredDone
}

func TestProgramValidation(t *testing.T) {
	cases := []struct {
		name   string
		phases []*Phase
	}{
		{"empty", nil},
		{"nil phase", []*Phase{nil}},
		{"nil phase after a mapping", []*Phase{{Name: "x", Granules: 1, Enable: enable.NewUniversal()}, nil}},
		{"empty name", []*Phase{{Name: "", Granules: 1}}},
		{"dup name", []*Phase{{Name: "x", Granules: 1}, {Name: "x", Granules: 1}}},
		{"negative granules", []*Phase{{Name: "x", Granules: -1}}},
		{"negative serial", []*Phase{{Name: "x", Granules: 1, SerialCost: -1}}},
		{"final with mapping", []*Phase{{Name: "x", Granules: 1, Enable: enable.NewUniversal()}}},
		{"mapping into serial", []*Phase{
			{Name: "x", Granules: 1, Enable: enable.NewUniversal()},
			{Name: "y", Granules: 1, SerialBefore: func() {}},
		}},
		{"out of range map", []*Phase{
			{Name: "x", Granules: 2, Enable: enable.NewForwardIMAP([]granule.ID{5, 5})},
			{Name: "y", Granules: 2},
		}},
	}
	for _, c := range cases {
		if _, err := NewProgram(c.phases...); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	prog := mustProgram(t, &Phase{Name: "a", Granules: 100})
	s, _ := New(prog, Options{Workers: 5})
	opt := s.Options()
	if opt.Grain != 10 { // ceil(100 / (2*5))
		t.Errorf("default grain = %d, want 10", opt.Grain)
	}
	if opt.SubsetSize != 10 {
		t.Errorf("default subset = %d, want 10", opt.SubsetSize)
	}
	s2, _ := New(prog, Options{})
	if s2.Options().Workers != 1 {
		t.Errorf("default workers = %d, want 1", s2.Options().Workers)
	}
}

func TestStatsAccounting(t *testing.T) {
	prog := identityProgram(t, 32)
	s, _ := New(prog, Options{Workers: 4, Grain: 4, Overlap: true, Costs: DefaultCosts()})
	runDriver(t, s, 4, nil)
	st := s.Stats()
	if st.Dispatches == 0 || st.Completions == 0 {
		t.Fatal("no dispatches/completions recorded")
	}
	if st.MgmtCost() <= 0 {
		t.Fatal("management cost not accumulated")
	}
	sum := st.DispatchCost + st.SplitCost + st.CompleteCost + st.TableCost + st.ElevateCost + st.DeferredCost
	if st.MgmtCost() != sum {
		t.Errorf("MgmtCost %d != component sum %d", st.MgmtCost(), sum)
	}
	if st.TotalCost() != st.MgmtCost()+st.SerialCost {
		t.Error("TotalCost mismatch")
	}
}

func TestTaskCost(t *testing.T) {
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 10, Cost: func(g granule.ID) Cost { return Cost(g) }},
	)
	s, _ := New(prog, Options{Workers: 1, Grain: 10, Costs: FreeCosts()})
	s.Start()
	task, _, ok := s.NextTask()
	if !ok {
		t.Fatal("no task")
	}
	if got := s.TaskCost(task); got != 45 { // 0+1+...+9
		t.Errorf("TaskCost = %d, want 45", got)
	}
	s.Complete(task)

	prog2 := mustProgram(t, &Phase{Name: "a", Granules: 7})
	s2, _ := New(prog2, Options{Workers: 1, Grain: 7})
	s2.Start()
	task2, _, _ := s2.NextTask()
	if got := s2.TaskCost(task2); got != 7 {
		t.Errorf("unit TaskCost = %d, want 7", got)
	}
}

// TestPhaseTotalCost: a phase's total cost is the sum of its granules'
// costs, for a unit-cost phase (nil Cost, priced from its granule count) and
// a costed one alike, and a program's is the sum of its phases'.
func TestPhaseTotalCost(t *testing.T) {
	phases := []*Phase{
		{Name: "empty"},
		{Name: "unit", Granules: 1000},
		{Name: "one", Granules: 1},
		{Name: "costed", Granules: 130, Cost: func(g granule.ID) Cost { return Cost(3*g + 1) }},
		{Name: "costed-empty", Cost: func(granule.ID) Cost { return 5 }},
	}
	var all Cost
	for _, ph := range phases {
		var want Cost
		for g := 0; g < ph.Granules; g++ {
			want += ph.GranuleCost(granule.ID(g))
		}
		if got := ph.TotalCost(); got != want {
			t.Errorf("phase %s: TotalCost = %d, want %d", ph.Name, got, want)
		}
		all += want
	}
	if got := (&Program{Phases: phases}).TotalCost(); got != all {
		t.Errorf("program TotalCost = %d, want %d", got, all)
	}
}

// TestTaskCostMixedProgram: on a program whose phases alternate between
// unit cost and costed, every task's TaskCost — read from the scheduler's
// phase record — is the sum of its granules' costs as the Program states
// them, and the tasks' costs sum to the program's.
func TestTaskCostMixedProgram(t *testing.T) {
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: 37, Enable: enable.NewIdentity()},
		&Phase{Name: "b", Granules: 37, Cost: func(g granule.ID) Cost { return Cost(g%7 + 2) }, Enable: enable.NewUniversal()},
		&Phase{Name: "c", Granules: 20},
		&Phase{Name: "d", Granules: 9, Cost: func(granule.ID) Cost { return 11 }},
	)
	s, err := New(prog, Options{Workers: 3, Grain: 4, Overlap: true, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var total Cost
	for task, _, ok := s.NextTask(); ok; task, _, ok = s.NextTask() {
		var want Cost
		ph := prog.Phases[task.Phase]
		task.Run.Each(func(g granule.ID) { want += ph.GranuleCost(g) })
		if got := s.TaskCost(task); got != want {
			t.Errorf("TaskCost(%v) = %d, want %d", task, got, want)
		}
		total += want
		s.Complete(task)
	}
	if !s.Done() || total != prog.TotalCost() {
		t.Fatalf("done=%v, tasks cost %d, program %d", s.Done(), total, prog.TotalCost())
	}
}

// TestDoubleDispatchOfPartRunPanics: a queued description that overlaps a
// dispatched run only in part — the run's tail and granules not yet handed
// out — panics when it reaches dispatch, and the refused carve leaves the
// granules it did not overlap undispatched.
func TestDoubleDispatchOfPartRunPanics(t *testing.T) {
	prog := mustProgram(t, &Phase{Name: "a", Granules: 16})
	s, err := New(prog, Options{Workers: 1, Grain: 4, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	first, _, _ := s.NextTask()
	if first.Run != granule.R(0, 4) {
		t.Fatalf("first dispatch %v, want granules [0,4)", first)
	}
	s.pushDesc(s.newDesc(0, granule.R(2, 6)), queue.Elevated) // ahead of [4,16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dispatching [2,6) with [0,4) in flight did not panic")
			}
		}()
		s.NextTask()
	}()
	if d := s.phases[0].dispatched; d.Any(granule.R(4, 6)) || !d.All(first.Run) {
		t.Errorf("after the refused dispatch the dispatched set is %x, want exactly [0,4)", d)
	}
}

func TestNextTaskBeforeStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	prog := mustProgram(t, &Phase{Name: "a", Granules: 1})
	s, _ := New(prog, Options{Workers: 1})
	s.NextTask()
}

// TestCompleteUnknownTaskPanics: a Task's ID is its description's index
// in the scheduler's arena, so completion checks that the ID names a
// description in flight with the task's run. An ID outside the arena, a
// class head's, a queued description's, another run's, or that of a
// completed task whose record a later dispatch has reused panics instead of
// completing someone else's granules — and leaves the scheduler as it was.
func TestCompleteUnknownTaskPanics(t *testing.T) {
	prog := mustProgram(t, &Phase{Name: "a", Granules: 8})
	s, _ := New(prog, Options{Workers: 1, Grain: 2})
	s.Start()
	first, _, _ := s.NextTask()
	s.Complete(first)
	second, _, _ := s.NextTask()
	if second.ID != first.ID {
		t.Fatalf("second dispatch %v did not reuse the record of the completed %v", second, first)
	}
	head, _ := s.wait.Peek()
	for name, task := range map[string]Task{
		"an ID beyond the arena":  {ID: 999, Run: granule.R(4, 6)},
		"the zero Task":           {},
		"a class head":            {ID: 1, Run: granule.R(4, 6)},
		"a queued description":    {ID: int(head), Run: s.wait.At(head).run.r()},
		"another run":             {ID: second.ID, Run: granule.R(4, 6)},
		"a completed, reused one": first,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("completing %s (%v) did not panic", name, task)
				}
			}()
			s.Complete(task)
		}()
	}
	if err := s.Check(); err != nil || s.InFlight() != 1 {
		t.Fatalf("after the refused completions: %d in flight, %v", s.InFlight(), err)
	}
	s.Complete(second)
	for task, _, ok := s.NextTask(); ok; task, _, ok = s.NextTask() {
		s.Complete(task)
	}
	if err := s.Check(); err != nil || !s.Done() {
		t.Fatalf("done=%v, %v", s.Done(), err)
	}
}

// TestDescRecordSize pins a description's arena record — the waiting
// queue's two index links and the description — at 32 bytes: two to a cache
// line, none straddling one.
func TestDescRecordSize(t *testing.T) {
	var rec struct {
		prev, next queue.Index
		d          desc
	}
	if got := unsafe.Sizeof(rec); got != 32 {
		t.Fatalf("description record is %d bytes, want 32", got)
	}
}

// TestQuickRandomPrograms drives random programs with random mappings,
// worker counts and completion orders — one completion at a time, then in
// random CompleteBatch groups — validating dependences, exactly-once
// dispatch and scheduler invariants throughout.
func TestQuickRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(20230611))
	for iter := 0; iter < 120; iter++ {
		nPhases := 2 + rng.Intn(4)
		phases := make([]*Phase, nPhases)
		for i := range phases {
			phases[i] = &Phase{
				Name:     string(rune('a' + i)),
				Granules: rng.Intn(41),
			}
		}
		for i := 0; i < nPhases-1; i++ {
			nPred, nSucc := phases[i].Granules, phases[i+1].Granules
			switch rng.Intn(5) {
			case 0:
				phases[i].Enable = nil // null
			case 1:
				phases[i].Enable = enable.NewUniversal()
			case 2:
				phases[i].Enable = enable.NewIdentity()
			case 3:
				if nPred == 0 || nSucc == 0 {
					phases[i].Enable = enable.NewUniversal()
					continue
				}
				imap := make([]granule.ID, nPred)
				for p := range imap {
					imap[p] = granule.ID(rng.Intn(nSucc))
				}
				phases[i].Enable = enable.NewForwardIMAP(imap)
			case 4:
				if nPred == 0 {
					phases[i].Enable = enable.NewUniversal()
					continue
				}
				reqs := make([][]granule.ID, nSucc)
				for r := range reqs {
					k := rng.Intn(3)
					for j := 0; j < k; j++ {
						reqs[r] = append(reqs[r], granule.ID(rng.Intn(nPred)))
					}
				}
				phases[i].Enable = enable.NewReverse(func(r granule.ID) []granule.ID {
					if int(r) >= len(reqs) {
						return nil
					}
					return reqs[r]
				})
			}
		}
		prog, err := NewProgram(phases...)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		workers := 1 + rng.Intn(8)
		opt := Options{
			Workers:       workers,
			Grain:         1 + rng.Intn(7),
			Overlap:       rng.Intn(4) != 0,
			Split:         SplitPolicy(rng.Intn(2)),
			SuccSplit:     SuccSplitMode(rng.Intn(2)),
			IdentityVia:   IdentityMode(rng.Intn(2)),
			ReleasedAhead: rng.Intn(2) == 0,
			Elevate:       rng.Intn(2) == 0,
			InlineMaps:    rng.Intn(2) == 0,
			SubsetSize:    1 + rng.Intn(10),
			Costs:         DefaultCosts(),
		}
		for _, batched := range []bool{false, true} {
			s, err := New(prog, opt)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			drive(t, s, workers, rng, batched)
		}
	}
}

func BenchmarkSchedulerIdentityOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, _ := NewProgram(
			&Phase{Name: "a", Granules: 4096, Enable: enable.NewIdentity()},
			&Phase{Name: "b", Granules: 4096},
		)
		s, _ := New(prog, Options{Workers: 16, Grain: 64, Overlap: true, Costs: DefaultCosts()})
		s.Start()
		var inflight []Task
		for !s.Done() {
			for len(inflight) < 16 {
				task, _, ok := s.NextTask()
				if !ok {
					break
				}
				inflight = append(inflight, task)
			}
			if len(inflight) == 0 {
				break
			}
			task := inflight[0]
			inflight = inflight[1:]
			s.Complete(task)
		}
	}
}
