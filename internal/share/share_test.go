package share

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// ref is the naive statement of the policy the incremental Policy must agree
// with: the apportionment recomputed from scratch on demand, the candidate
// list of a walk re-sorted in full when the walk starts.
type ref struct {
	jobs    []*Job // the test's job pool; ref reads ID/Priority/Weight only
	live    map[int]bool
	deficit map[int]int64
	alive   map[int]bool
	workers int
}

func (r *ref) liveIDs() []int {
	var ids []int
	for id := range r.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// homes recomputes the whole home map: floors, then the leftovers handed out
// one at a time to the best remaining claimant.
func (r *ref) homes() (perJob map[int]int, perWorker []int) {
	perJob = map[int]int{}
	perWorker = make([]int, r.workers)
	for w := range perWorker {
		perWorker[w] = -1
	}
	ids := r.liveIDs()
	if len(ids) == 0 {
		return
	}
	var survivors []int
	for w := 0; w < r.workers; w++ {
		if r.alive[w] {
			survivors = append(survivors, w)
		}
	}
	total := 0
	for _, id := range ids {
		total += r.jobs[id].Weight
	}
	left := len(survivors)
	rem := map[int]int{}
	for _, id := range ids {
		exact := len(survivors) * r.jobs[id].Weight
		perJob[id], rem[id] = exact/total, exact%total
		left -= perJob[id]
	}
	beats := func(a, b int) bool {
		if ja, jb := r.jobs[a], r.jobs[b]; ja.Priority != jb.Priority {
			return ja.Priority > jb.Priority
		}
		if rem[a] != rem[b] {
			return rem[a] > rem[b]
		}
		return a < b
	}
	given := map[int]bool{}
	for ; left > 0; left-- {
		best := -1
		for _, id := range ids {
			if !given[id] && (best < 0 || beats(id, best)) {
				best = id
			}
		}
		given[best] = true
		perJob[best]++
	}
	slot := 0
	for _, id := range ids {
		for k := 0; k < perJob[id]; k++ {
			perWorker[survivors[slot]] = id
			slot++
		}
	}
	return
}

// walk materialises worker w's candidate list: home, then the rest of the
// live set sorted by the backfill comparator, replenishing first when that
// rest is non-empty and collectively out of credit.
func (r *ref) walk(w int) []int {
	_, perWorker := r.homes()
	home := perWorker[w]
	var cands []int
	credit := false
	for _, id := range r.liveIDs() {
		if id != home {
			cands = append(cands, id)
			credit = credit || r.deficit[id] > 0
		}
	}
	if len(cands) > 0 && !credit {
		for id := range r.live {
			r.deficit[id] += int64(r.jobs[id].Weight) * Quantum
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ja, jb := r.jobs[cands[a]], r.jobs[cands[b]]
		if ja.Priority != jb.Priority {
			return ja.Priority > jb.Priority
		}
		if da, db := r.deficit[ja.ID], r.deficit[jb.ID]; da != db {
			return da > db
		}
		return ja.ID < jb.ID
	})
	if home >= 0 {
		return append([]int{home}, cands...)
	}
	return cands
}

// check compares every observable of p with the reference and asserts the
// apportionment invariants.
func check(t *testing.T, at string, p *Policy, r *ref) {
	t.Helper()
	perJob, perWorker := r.homes()
	sum, total := 0, 0
	for id := range r.live {
		total += r.jobs[id].Weight
	}
	for _, j := range r.jobs {
		if j.Homes() != perJob[j.ID] {
			t.Fatalf("%s: job %d holds %d homes, reference %d", at, j.ID, j.Homes(), perJob[j.ID])
		}
		if j.deficit != r.deficit[j.ID] {
			t.Fatalf("%s: job %d credit %d, reference %d", at, j.ID, j.deficit, r.deficit[j.ID])
		}
		sum += j.Homes()
		if r.live[j.ID] {
			// floor(exact) <= share <= floor(exact)+1, in units of 1/total:
			// never a whole worker short, at most one leftover over. (A
			// whole worker over happens only to a job whose exact share is
			// an integer and whose priority wins it a leftover.)
			if d := j.Homes()*total - p.LiveWorkers()*j.Weight; d <= -total || d > total {
				t.Fatalf("%s: job %d holds %d of %d workers at weight %d/%d", at, j.ID, j.Homes(), p.LiveWorkers(), j.Weight, total)
			}
		}
	}
	if want := p.LiveWorkers(); len(r.live) > 0 && sum != want || len(r.live) == 0 && sum != 0 {
		t.Fatalf("%s: %d homes over %d live workers and %d live jobs", at, sum, want, len(r.live))
	}
	for w, id := range perWorker {
		got := -1
		if h := p.Home(w); h != nil {
			got = h.ID
		}
		if got != id {
			t.Fatalf("%s: worker %d homed on %d, reference %d", at, w, got, id)
		}
		if p.Retired(w) != !r.alive[w] || p.Retired(w) && got >= 0 {
			t.Fatalf("%s: worker %d retired=%v home=%d, reference alive=%v", at, w, p.Retired(w), got, r.alive[w])
		}
	}
}

// TestQuickAgainstReference drives random add / remove / retire-worker /
// walk-and-charge sequences through the Policy and the naive reference and
// requires identical home maps, walk orders and credits (so identical
// replenishment points) at every step. It is the order-equivalence argument
// for the cached, lazily opened walk (DESIGN.md §5.6), checked by a machine.
func TestQuickAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(9)
		p := New(workers)
		r := &ref{live: map[int]bool{}, deficit: map[int]int64{}, alive: map[int]bool{}, workers: workers}
		for w := 0; w < workers; w++ {
			r.alive[w] = true
		}
		for id := 0; id < 2+rng.Intn(6); id++ {
			r.jobs = append(r.jobs, &Job{ID: id, Priority: rng.Intn(3), Weight: 1 + rng.Intn(4)})
		}
		for step := 0; step < 400; step++ {
			j := r.jobs[rng.Intn(len(r.jobs))]
			switch op := rng.Intn(10); {
			case op == 0 && r.live[j.ID]:
				p.Remove(j)
				delete(r.live, j.ID)
			case op <= 2:
				p.Add(j) // a no-op on a live job, in both
				r.live[j.ID] = true
			case op == 3 && p.LiveWorkers() > 1:
				w := rng.Intn(workers)
				p.RetireWorker(w) // a no-op on a retired worker, in both
				delete(r.alive, w)
			default:
				w := rng.Intn(workers)
				if p.Retired(w) {
					continue // a retired worker never asks
				}
				want := r.walk(w)
				wk := p.Start(w)
				take := rng.Intn(len(want) + 1) // the candidate that dispatches; len = none
				for i := 0; ; i++ {
					c := p.Next(&wk)
					if c == nil {
						if i != len(want) {
							t.Fatalf("seed %d step %d: walk ended after %d of %v", seed, step, i, want)
						}
						break
					}
					if i >= len(want) || c.ID != want[i] {
						t.Fatalf("seed %d step %d: walk yields %d at %d, reference %v", seed, step, c.ID, i, want)
					}
					if i == 0 && c == wk.Home && rng.Intn(8) == 0 {
						// The home probe retired the home job mid-walk: the
						// walk skipped it either way, so nothing else moves.
						p.Remove(c)
						delete(r.live, c.ID)
					}
					if i == take {
						if c != wk.Home {
							n := 1 + rng.Intn(100)
							p.Charge(c, n)
							r.deficit[c.ID] -= int64(n)
						}
						break
					}
				}
			}
			check(t, fmt.Sprintf("seed %d step %d", seed, step), p, r)
		}
	}
}

// TestWalkOrderIsStrict: the backfill comparator is a strict total order —
// the ID breaks every tie — so a walk names each live job exactly once, in
// an order that does not depend on how the jobs were inserted.
func TestWalkOrderIsStrict(t *testing.T) {
	a := []*Job{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}, {ID: 3, Weight: 1}}
	p := New(1)
	for _, i := range []int{2, 0, 3, 1} {
		p.Add(a[i])
	}
	wk := p.Start(0)
	for want := 0; want < len(a); want++ {
		if c := p.Next(&wk); c == nil || c.ID != want {
			t.Fatalf("equal-standing jobs walked out of ID order: got %v at position %d", c, want)
		}
	}
	if c := p.Next(&wk); c != nil {
		t.Fatalf("walk named job %d twice", c.ID)
	}
}

// TestSteadyStateAllocatesNothing: a full walk past home and a charge — the
// two calls a dispatch makes — allocate nothing once the policy's buffers
// have grown, whether or not the charge dirtied the cached order.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	p := New(8)
	jobs := []*Job{{ID: 0, Weight: 2}, {ID: 1, Weight: 1, Priority: 1}, {ID: 2, Weight: 1}, {ID: 3, Weight: 3}}
	for _, j := range jobs {
		p.Add(j)
	}
	w := 0
	allocs := testing.AllocsPerRun(1000, func() {
		wk := p.Start(w)
		var last *Job
		for c := p.Next(&wk); c != nil; c = p.Next(&wk) {
			last = c
		}
		p.Charge(last, 48)
		w = (w + 1) % 8
	})
	if allocs != 0 {
		t.Errorf("a walk and a charge allocate %.1f times in steady state, want 0", allocs)
	}
}
