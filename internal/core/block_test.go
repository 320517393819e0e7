package core

import (
	"testing"

	"repro/internal/enable"
	"repro/internal/granule"
)

// Allocation guards for a scheduler's per-run storage: the scheduler, its
// phase records and one bitmap block cut into every phase's guards and
// management sets and the completion scratch. The enablement tables live
// in the phase records and a pair's publication gathers its releases in
// the scratch, so starting a run adds only the waiting queue's arena.

// identityChain4 is a four-phase identity chain of n granules per phase.
func identityChain4(t *testing.T, n int) *Program {
	t.Helper()
	return mustProgram(t,
		&Phase{Name: "a", Granules: n, Enable: enable.NewIdentity()},
		&Phase{Name: "b", Granules: n, Enable: enable.NewIdentity()},
		&Phase{Name: "c", Granules: n, Enable: enable.NewIdentity()},
		&Phase{Name: "d", Granules: n},
	)
}

// TestNewAllocs: New of a four-phase identity chain with overlap makes
// three objects, under either identity mechanism.
func TestNewAllocs(t *testing.T) {
	prog := identityChain4(t, 4096)
	for _, via := range []IdentityMode{IdentityConflictQueue, IdentityTable} {
		opt := Options{Grain: 8, Overlap: true, IdentityVia: via, Costs: DefaultCosts()}
		got := testing.AllocsPerRun(20, func() {
			if _, err := New(prog, opt); err != nil {
				t.Fatal(err)
			}
		})
		if got > 3 {
			t.Errorf("identity via %v: New allocated %.0f objects, want at most 3 (scheduler, phase records, bitmap block)", via, got)
		}
	}
}

// TestNewStartAllocs: Start publishes the first pair — its table built in
// place, its releases gathered in the scratch — so New and Start together
// make four objects, the fourth the waiting queue's arena.
func TestNewStartAllocs(t *testing.T) {
	prog := identityChain4(t, 4096)
	for _, via := range []IdentityMode{IdentityConflictQueue, IdentityTable} {
		opt := Options{Grain: 8, Overlap: true, IdentityVia: via, Costs: DefaultCosts()}
		got := testing.AllocsPerRun(20, func() {
			s, err := New(prog, opt)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
		})
		if got > 4 {
			t.Errorf("identity via %v: New+Start allocated %.0f objects, want at most 4", via, got)
		}
	}
}

// TestDeferredStepAllocs: a step of an incremental composite-map build
// that does not finish it re-queues its item in place, allocating nothing.
func TestDeferredStepAllocs(t *testing.T) {
	const n = 1 << 12
	prog := mustProgram(t,
		&Phase{Name: "a", Granules: n, Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
			return []granule.ID{r, (r*7 + 3) % n}
		})},
		&Phase{Name: "b", Granules: n},
	)
	s, err := New(prog, Options{Grain: 8, Overlap: true, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// The first step builds the table's counters; 2n entries at 64 per
	// step leave well over a hundred steps to measure.
	if _, ok := s.DeferredMgmt(); !ok {
		t.Fatal("no deferred map build queued")
	}
	const steps = 50
	got := testing.AllocsPerRun(steps, func() {
		if cost, ok := s.DeferredMgmt(); !ok || cost != DefaultCosts().MapChunk {
			t.Fatalf("deferred step charged %d (ok=%v), want a partial chunk of %d", cost, ok, DefaultCosts().MapChunk)
		}
	})
	if got != 0 {
		t.Errorf("an unfinished deferred build step allocated %.2f objects, want 0", got)
	}
	if !s.HasDeferred() {
		t.Fatal("the unfinished build left the deferred queue")
	}
	for s.HasDeferred() {
		s.DeferredMgmt()
	}
	if st := s.Stats(); st.TableBuilds != 1 {
		t.Errorf("the build was made %d times, want once", st.TableBuilds)
	}
	if err := s.Check(); err != nil {
		t.Error(err)
	}
}
