package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/enable"
	"repro/internal/granule"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned.txt")

// TestOrderAndChargesPinned pins the state machine's dispatch order and
// accounting at the core level: a single-threaded, seeded driver — dispatch
// up to the free slots, complete a seeded subset in a seeded order, absorb
// deferred management work when the queue runs dry (and on a seeded coin
// flip before that) — over a grid of
// mappings and options, one task at a time (NextTask/Complete) and batched
// (NextTasks/CompleteBatch). The task sequence, the final Stats and the sum
// of the costs the calls returned are compared against
// testdata/pinned.txt, which was generated before the dispatch path carved
// descriptions in place and before promotion swapped class rings: both
// changes must be order- and charge-identical everywhere the grid reaches,
// not only where the simulator's goldens do.
func TestOrderAndChargesPinned(t *testing.T) {
	const n = 40
	mappings := []struct {
		name string
		spec func() *enable.Spec
		via  IdentityMode
	}{
		{"identity-cq", enable.NewIdentity, IdentityConflictQueue},
		{"identity-table", enable.NewIdentity, IdentityTable},
		{"universal", enable.NewUniversal, 0},
		{"seam", func() *enable.Spec {
			return enable.NewSeam(func(r granule.ID) []granule.ID {
				req := []granule.ID{r}
				if r > 0 {
					req = append(req, r-1)
				}
				if r < n-1 {
					req = append(req, r+1)
				}
				return req
			})
		}, 0},
		{"reverse", func() *enable.Spec {
			return enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{n - 1 - r, (r*7 + 3) % n}
			})
		}, 0},
	}
	var out strings.Builder
	for _, m := range mappings {
		for _, split := range []SplitPolicy{SplitDemand, SplitPre} {
			for _, succ := range []SuccSplitMode{SuccSplitInline, SuccSplitDeferred} {
				for _, elevate := range []bool{false, true} {
					for _, batched := range []bool{false, true} {
						name := fmt.Sprintf("%s/%v/%v/elevate=%v/batched=%v", m.name, split, succ, elevate, batched)
						prog := mustProgram(t,
							&Phase{Name: "a", Granules: n, Enable: m.spec()},
							&Phase{Name: "b", Granules: n, Enable: m.spec()},
							&Phase{Name: "c", Granules: n},
						)
						s, err := New(prog, Options{
							Workers: 4, Grain: 3, Overlap: true, Split: split, SuccSplit: succ,
							IdentityVia: m.via, Elevate: elevate, Costs: DefaultCosts(),
						})
						if err != nil {
							t.Fatal(err)
						}
						h := fnv.New64a()
						h.Write([]byte(name))
						tasks, cost := pinnedDrive(t, s, 4, rand.New(rand.NewSource(int64(h.Sum64()))), batched)
						fmt.Fprintf(&out, "%s\n  tasks %s\n  stats %+v\n  cost %d\n", name, tasks, s.Stats(), cost)
					}
				}
			}
		}
	}
	const path = "testdata/pinned.txt"
	if *updatePinned {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("line %d differs from %s\ngot  %s\nwant %s", i+1, path, got[i], w)
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(got), path, len(wantLines))
	}
}

// pinnedDrive runs s to completion with `workers` slots and returns the
// dispatched tasks in order ("phase:lo-hi", space-separated) and the summed
// cost every call returned.
func pinnedDrive(t *testing.T, s *Scheduler, workers int, rng *rand.Rand, batched bool) (string, Cost) {
	t.Helper()
	var seq strings.Builder
	var inflight []Task
	cost := s.Start()
	dispatch := func(task Task) {
		fmt.Fprintf(&seq, "%d:%d-%d ", task.Phase, task.Run.Lo, task.Run.Hi)
		inflight = append(inflight, task)
	}
	for !s.Done() {
		// An idle executive moment, on a coin flip: deferred work (a
		// composite-map build step, a successor split) runs before the
		// queue is dry, so the elevated subset finds its enablers queued.
		if s.HasDeferred() && rng.Intn(2) == 0 {
			c, _ := s.DeferredMgmt()
			cost += c
		}
		for len(inflight) < workers {
			want := workers - len(inflight)
			got := 0
			if batched {
				ts, c := s.NextTasks(nil, want)
				cost += c
				for _, task := range ts {
					dispatch(task)
				}
				got = len(ts)
			} else {
				for ; got < want; got++ {
					task, c, ok := s.NextTask()
					cost += c
					if !ok {
						break
					}
					dispatch(task)
				}
			}
			if got == want {
				break
			}
			c, ok := s.DeferredMgmt()
			if !ok {
				break
			}
			cost += c
		}
		if len(inflight) == 0 {
			t.Fatalf("deadlock: nothing in flight, scheduler not done (phase %d)", s.CurrentPhase())
		}
		rng.Shuffle(len(inflight), func(i, j int) { inflight[i], inflight[j] = inflight[j], inflight[i] })
		k := 1 + rng.Intn(len(inflight))
		if batched {
			cost += s.CompleteBatch(inflight[:k])
		} else {
			for _, task := range inflight[:k] {
				cost += s.Complete(task)
			}
		}
		inflight = append(inflight[:0], inflight[k:]...)
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
	}
	return strings.TrimSpace(seq.String()), cost
}
