package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/enable"
	"repro/internal/granule"
)

// drain runs s to completion with two logical workers and no reference
// model beside it (the dependence checker of runDriver evaluates the
// mapping functions itself, which the call-counting tests must not do).
func drain(t *testing.T, s *Scheduler) {
	t.Helper()
	s.Start()
	var inflight []Task
	for !s.Done() {
		for len(inflight) < 2 {
			task, _, ok := s.NextTask()
			if !ok {
				if s.HasDeferred() {
					s.DeferredMgmt()
					continue
				}
				break
			}
			inflight = append(inflight, task)
		}
		if len(inflight) == 0 {
			t.Fatalf("deadlock: nothing in flight, scheduler not done (phase %d)", s.CurrentPhase())
		}
		s.Complete(inflight[0])
		inflight = inflight[1:]
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCompileOnce: a mapping function is evaluated exactly once per granule
// of its program however many times the program is validated, scheduled
// and run — with elevation on, so successor-subset planning (PredsFor) is
// inside the count, and with the composite map built both in deferred
// pieces and inline.
func TestCompileOnce(t *testing.T) {
	const nPred, nSucc = 96, 64
	var calls atomic.Int64
	imap := make([]granule.ID, nPred)
	for p := range imap {
		imap[p] = granule.ID(p * 7 % nSucc)
	}
	cases := []struct {
		name string
		spec *enable.Spec
		want int64 // one call per granule of the side the function maps from
	}{
		{"forward", enable.NewForward(func(p granule.ID) []granule.ID {
			calls.Add(1)
			return imap[p : p+1]
		}), nPred},
		{"reverse", enable.NewReverse(func(r granule.ID) []granule.ID {
			calls.Add(1)
			return []granule.ID{r, nPred - 1 - r, r} // a duplicate, too
		}), nSucc},
		{"seam", enable.NewSeam(func(r granule.ID) []granule.ID {
			calls.Add(1)
			return []granule.ID{r, r + 1}
		}), nSucc},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls.Store(0)
			prog := mustProgram(t,
				&Phase{Name: "a", Granules: nPred, Enable: c.spec},
				&Phase{Name: "b", Granules: nSucc},
			)
			if got := calls.Load(); got != c.want {
				t.Fatalf("NewProgram evaluated the mapping function %d times, want %d", got, c.want)
			}
			var entries int64
			for _, opt := range []Options{
				{Workers: 2, Grain: 4, Overlap: true, Elevate: true, SubsetSize: 8, Costs: DefaultCosts()},
				{Workers: 2, Grain: 4, Overlap: true, Elevate: true, SubsetSize: 8, InlineMaps: true},
				{Workers: 2, Grain: 1, Overlap: true, Elevate: true, SubsetSize: 64, InlineMaps: true},
			} {
				s, err := New(prog, opt)
				if err != nil {
					t.Fatal(err)
				}
				drain(t, s)
				st := s.Stats()
				if st.TableBuilds != 1 || st.TableEntries == 0 {
					t.Errorf("run charged %d table builds, %d entries: every run still pays for its map", st.TableBuilds, st.TableEntries)
				}
				if entries != 0 && st.TableEntries != entries {
					t.Errorf("runs of one program disagree on map entries: %d vs %d", st.TableEntries, entries)
				}
				entries = st.TableEntries
			}
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != c.want {
				t.Errorf("mapping function evaluated %d times over NewProgram, three schedulers and their runs, want %d", got, c.want)
			}
		})
	}
}

// TestNewOnCompiledProgramAllocs: scheduling an already-compiled program
// and building its composite map inline copies the enablement counters and
// allocates a fixed number of objects besides — nothing per granule.
func TestNewOnCompiledProgramAllocs(t *testing.T) {
	measure := func(n int) float64 {
		imap := make([]granule.ID, 2*n)
		for i := range imap {
			imap[i] = granule.ID(i * 31 % n)
		}
		prog := mustProgram(t,
			&Phase{Name: "a", Granules: n, Enable: enable.NewReverseIMAP(imap, 2)},
			&Phase{Name: "b", Granules: n},
		)
		return testing.AllocsPerRun(10, func() {
			s, err := New(prog, Options{Grain: 8, Overlap: true, InlineMaps: true})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
		})
	}
	small, large := measure(256), measure(4096)
	// Every bitmap, the ready-at-start copy among them, is one allocation
	// whatever its size; allow the fixed count a little room.
	if large > small+8 || large > 64 {
		t.Errorf("New+Start allocated %.0f objects at 4096 granules, %.0f at 256: want a constant", large, small)
	}
}

// TestMappingPanicIsValidationError: a mapping function that panics does so
// inside NewProgram/New, on the caller's goroutine, and comes back as an
// error — there is no later evaluation left to fail under a lock.
func TestMappingPanicIsValidationError(t *testing.T) {
	spec := enable.NewReverse(func(r granule.ID) []granule.ID {
		if r == 3 {
			panic("selection map not generated yet")
		}
		return []granule.ID{r}
	})
	phases := []*Phase{{Name: "a", Granules: 8, Enable: spec}, {Name: "b", Granules: 8}}
	if _, err := NewProgram(phases...); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("NewProgram = %v, want the recovered panic as an error", err)
	}
	if _, err := New(&Program{Phases: phases}, Options{Overlap: true}); err == nil {
		t.Fatal("New accepted a program whose mapping function panics")
	}
}
