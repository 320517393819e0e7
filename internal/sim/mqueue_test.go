package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestMitemSize guards the event layout heap.go and DESIGN.md §5.6
// describe: a queue entry is three words with no pointers, a queue slot
// the same, and the per-worker hot state one cache line.
func TestMitemSize(t *testing.T) {
	if n := unsafe.Sizeof(mitem{}); n != 24 {
		t.Errorf("mitem is %d bytes, want 24 (and never more than 64)", n)
	}
	if n := unsafe.Sizeof(mslot{}); n != 24 {
		t.Errorf("mslot is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(mworker{}); n != 64 {
		t.Errorf("mworker is %d bytes, want one 64-byte cache line", n)
	}
}

// refEvent is the reference model's copy of a queued event: the event and
// its global push number.
type refEvent struct {
	it  mitem
	seq int
}

// refQueue is the specification mqueue implements: a list kept sorted by
// (at, ask-before-completion, push order).
type refQueue []refEvent

// before reports whether a pops before b.
func (a refEvent) before(b refEvent) bool {
	if a.it.at != b.it.at {
		return a.it.at < b.it.at
	}
	if a.it.isDone() != b.it.isDone() {
		return !a.it.isDone()
	}
	return a.seq < b.seq
}

func (q refQueue) insert(e refEvent) refQueue {
	i := sort.Search(len(q), func(i int) bool { return e.before(q[i]) })
	q = append(q, refEvent{})
	copy(q[i+1:], q[i:])
	q[i] = e
	return q
}

// askFirst is the specification of askWouldPopFirst: no queued event
// orders before a fresh ask at time at.
func (q refQueue) askFirst(at int64) bool {
	for _, e := range q {
		if e.it.at < at || (e.it.at == at && !e.it.isDone()) {
			return false
		}
	}
	return true
}

// TestMqueueModel drives random monotone push/pop sequences through the
// calendar queue and a sorted reference, comparing pop order, peekTime and
// askWouldPopFirst on every step. The push mix covers same-tick asks and
// completions, events past the mqWindow horizon (the overflow heap, and
// its migration when the window advances), and full drains followed by
// pushes in any order — the handler of the event whose pop emptied the
// queue may push a far event first and a near one second (the Async model
// dispatches, a completion far out, and then wakes parked workers at the
// current time; the queue used to re-anchor its window at the first push
// into an empty queue and panicked on the second). Every popped event is held
// across the pushes that follow it — which reuse the slot pop just freed,
// as a handler's own pushes do — and must come through them unchanged.
func TestMqueueModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q mqueue
		q.reserve(4) // small, so the slot array and the overflow heap grow past it
		var ref refQueue
		var floor int64 // the engine's "now": nothing may be pushed before it
		seq := 0

		check := func(step int) {
			t.Helper()
			at, have := q.peekTime()
			if have != (len(ref) > 0) {
				t.Fatalf("seed %d step %d: peekTime have=%v with %d queued", seed, step, have, len(ref))
			}
			probes := []int64{floor, floor + 1}
			if have {
				if at != ref[0].it.at {
					t.Fatalf("seed %d step %d: peekTime %d, want %d", seed, step, at, ref[0].it.at)
				}
				probes = append(probes, at, at+1, at+mqWindow)
			}
			for _, p := range probes {
				if p < floor {
					continue
				}
				if got, want := q.askWouldPopFirst(p), ref.askFirst(p); got != want {
					t.Fatalf("seed %d step %d: askWouldPopFirst(%d) = %v, want %v", seed, step, p, got, want)
				}
			}
		}
		push := func() {
			var delta int64
			switch r := rng.Intn(100); {
			case r < 30: // same tick as the event being handled
			case r < 70:
				delta = 1 + rng.Int63n(8)
			case r < 88:
				delta = rng.Int63n(mqWindow)
			default: // beyond the horizon
				delta = mqWindow + rng.Int63n(3*mqWindow)
			}
			seq++
			it := mitem{at: floor + delta, gen: int64(seq), proc: int32(rng.Intn(64)), job: noJob}
			if rng.Intn(2) == 0 {
				it.job = int32(rng.Intn(8))
			}
			q.push(it)
			ref = ref.insert(refEvent{it, seq})
		}

		for step := 0; step < 20000; step++ {
			// Stretches that fill the queue alternate with stretches that
			// drain it to empty.
			fill := (step/500)%3 != 2
			if len(ref) == 0 || (fill && rng.Intn(100) < 30) || (!fill && rng.Intn(100) < 5) {
				if len(ref) == 0 && rng.Intn(2) == 0 {
					floor += rng.Int63n(2 * mqWindow) // time passed while the queue sat empty
				}
				push()
				check(step)
				continue
			}
			got, ok := q.pop()
			if !ok {
				t.Fatalf("seed %d step %d: pop on %d queued events reported empty", seed, step, len(ref))
			}
			want := ref[0].it
			ref = ref[1:]
			floor = want.at
			held := got
			n := rng.Intn(3)
			if !fill {
				n /= 2
			}
			for ; n > 0; n-- {
				push() // the handler's pushes land in the slot pop just freed
			}
			if got != want || held != want {
				t.Fatalf("seed %d step %d: popped %+v (held %+v), want %+v", seed, step, got, held, want)
			}
			check(step)
		}
		for len(ref) > 0 {
			got, _ := q.pop()
			if got != ref[0].it {
				t.Fatalf("seed %d drain: popped %+v, want %+v", seed, got, ref[0].it)
			}
			ref = ref[1:]
		}
		if _, ok := q.pop(); ok {
			t.Fatalf("seed %d: pop on a drained queue returned an event", seed)
		}
	}
}

// TestMqueueOverflowKeepsPushOrder pins the one ordering argument the
// bucket layout cannot show by construction: events that waited in the
// overflow heap for their tick to enter the window are chained into the
// bucket ahead of same-tick events pushed straight to it afterwards, and
// asks still drain before completions.
func TestMqueueOverflowKeepsPushOrder(t *testing.T) {
	var q mqueue
	q.reserve(1)
	const far = 3*mqWindow + 7
	ev := func(at int64, id int64, done bool) mitem {
		it := mitem{at: at, gen: id, job: noJob}
		if done {
			it.job = 0
		}
		return it
	}
	q.push(ev(0, 1, false))
	q.push(ev(far, 2, true))   // overflow completion
	q.push(ev(far, 3, false))  // overflow ask, pushed after it
	q.push(ev(far-1, 4, true)) // overflow, one tick earlier
	if it, _ := q.pop(); it.gen != 1 {
		t.Fatalf("first pop %+v, want event 1", it)
	}
	// The window is still anchored at 0, so these go to the overflow too.
	q.push(ev(far, 5, false))
	if it, _ := q.pop(); it.gen != 4 { // jumps the window to far-1 and migrates
		t.Fatalf("second pop %+v, want event 4", it)
	}
	// far is now inside the window: these go straight to its bucket.
	q.push(ev(far, 6, true))
	q.push(ev(far, 7, false))
	for _, want := range []int64{3, 5, 7, 2, 6} {
		it, ok := q.pop()
		if !ok || it.gen != want || it.at != far {
			t.Fatalf("popped %+v ok=%v, want event %d at %d", it, ok, want, far)
		}
	}
	if !q.empty() {
		t.Fatal("queue not empty after draining")
	}
}
