package executive

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/granule"
)

// deque is a Chase-Lev work-stealing deque of core.Tasks (Chase & Lev,
// "Dynamic Circular Work-Stealing Deque", SPAA 2005; atomics ordered per
// Lê et al., "Correct and Efficient Work-Stealing for Weak Memory Models",
// PPoPP 2013 — Go's sync/atomic operations are sequentially consistent, so
// every fence in that formulation is implied). The deque has one owner at
// a time — for the lane manager's ready lanes (lane.go) whoever holds the
// state-machine mutex, the hand-off ordered by that mutex; any number of
// thieves steal from it concurrently.
//
//   - The owner pushes and pops at the bottom with plain atomic loads and
//     stores — no lock, no CAS — except when taking the last element,
//     where it races the thieves with one CAS on top.
//   - Thieves take the oldest element at the top with one CAS each. top
//     only ever increases, so a stale read of it can only make a CAS fail,
//     never succeed wrongly: the counter is ABA-free by monotonicity.
//   - The circular array grows when full; the old ring is never written
//     again after the copy, so thieves still holding it read stable values.
//
// Memory model (the three atomics and their happens-before edges):
//
//   - bottom: written only by the owner. A push publishes its slot
//     writes before the bottom store (all seq-cst), so a thief that
//     observes the new bottom also observes the slot contents.
//   - top: CAS'd by thieves (steal) and by the owner (last element). The
//     owner's popBottom stores the decremented bottom *before* loading
//     top; a thief loads top *before* loading bottom. Sequential
//     consistency makes those two orderings a total order, so the owner
//     and a thief can never both conclude the same last element is theirs
//     without going through the top CAS, which only one of them wins.
//   - ring: the pointer is republished (seq-cst) only after every live
//     slot has been copied into the new ring, so a thief loading the
//     pointer after a push that grew sees the copied slots; a thief
//     holding the old pointer sees the frozen old slots.
//
// Slot contents are two independent atomic words: head = ID<<32 |
// uint32(Phase) and run = Lo<<32 | uint32(Hi). core bounds every Task
// field to 31 bits (an ID is an arena index below 2^31, a phase an int32,
// a granule at most maxGranules = 2^31-1), so the packing is exact. A
// thief's read of a slot can therefore tear — but only if the owner
// concurrently reuses the slot for a new push, which requires a push index
// a full ring past the thief's, which the owner writes only once top has
// advanced past the thief's index: the thief's CAS on the old top value
// then necessarily fails and the torn read is discarded. A successful CAS
// proves both words were stable for the whole read. Atomic word access
// keeps the race detector precise about all of this: every flagged
// interleaving would be a real protocol violation.
//
// A slot stays 32 bytes wide — two slots to a cache line — though it
// needs 16: a 16-byte stride measured 5–10 % slower when one shared buffer
// was pushed and stolen from at both ends (EXPERIMENTS.md, *two-word deque
// slots*).
//
// pushBottomN writes a whole batch of slots and publishes them with one
// store of bottom, so a thief sees none of the batch or all of it: a
// refill tops a ready lane up that way. pushBottom is pushBottomN of one
// task, so the two share one grow path.
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[dequeRing]
}

// dequeRing is one power-of-two circular array generation.
type dequeRing struct {
	mask  int64
	slots []dequeSlot
}

// dequeSlot holds one core.Task as two atomic words (see the header for
// the packing), padded to 32 bytes.
type dequeSlot struct {
	head, run atomic.Int64
	_         [16]byte
}

// Compile-time guard that the slot encoding covers every core.Task field:
// this conversion stops compiling the moment core.Task's shape changes,
// which is the signal that load/store below must be extended — without
// it, a new Task field would silently round-trip through the deque as
// its zero value.
var _ = struct {
	ID    int
	Phase granule.PhaseID
	Run   granule.Range
}(core.Task{})

func newDequeRing(size int64) *dequeRing {
	return &dequeRing{mask: size - 1, slots: make([]dequeSlot, size)}
}

func (r *dequeRing) size() int64 { return r.mask + 1 }

func (r *dequeRing) load(i int64) core.Task {
	s := &r.slots[i&r.mask]
	return unpack(s.head.Load(), s.run.Load())
}

func (r *dequeRing) store(i int64, t core.Task) {
	s := &r.slots[i&r.mask]
	head, run := pack(t)
	s.head.Store(head)
	s.run.Store(run)
}

// pack and unpack convert a task to and from its two words (see the
// header).
func pack(t core.Task) (head, run int64) {
	return int64(t.ID)<<32 | int64(uint32(t.Phase)), int64(t.Run.Lo)<<32 | int64(uint32(t.Run.Hi))
}

func unpack(head, run int64) core.Task {
	return core.Task{
		ID:    int(head >> 32),
		Phase: granule.PhaseID(int32(head)),
		Run:   granule.Range{Lo: granule.ID(run >> 32), Hi: granule.ID(uint32(run))},
	}
}

// newDeque sizes the initial ring for capHint tasks (rounded up to a power
// of two, minimum 8). The deque grows past the hint if needed; the hint
// just makes the steady state allocation-free.
func newDeque(capHint int) *deque {
	d := &deque{}
	d.ring.Store(newDequeRing(int64(max(pow2(capHint), 8))))
	return d
}

// pow2 rounds n up to a power of two, at least 1.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// size reports bottom-top. It is exact for the owner; for anyone else it
// is a moment-in-time estimate (may be stale, may briefly read as -1
// during the owner's popBottom of an empty deque).
func (d *deque) size() int64 {
	return d.bottom.Load() - d.top.Load()
}

// pushBottom appends t at the bottom, published with its own store of
// bottom. Owner only.
func (d *deque) pushBottom(t core.Task) { d.pushBottomN([]core.Task{t}) }

// pushBottomN appends ts at the bottom in order — ts[len-1] ends up at the
// bottom — growing the ring at most once and publishing the whole batch
// with one store of bottom. Owner only.
func (d *deque) pushBottomN(ts []core.Task) {
	n := int64(len(ts))
	if n == 0 {
		return
	}
	b := d.bottom.Load()
	r := d.ring.Load()
	if top := d.top.Load(); b-top+n > r.size() {
		r = d.grow(r, top, b, n)
	}
	for i, t := range ts {
		r.store(b+int64(i), t)
	}
	d.bottom.Store(b + n)
}

// popBottom removes the most recently pushed task. Owner only.
func (d *deque) popBottom() (core.Task, bool) {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return core.Task{}, false
	}
	task := r.load(b)
	if t == b {
		// Last element: race the thieves for it via the top CAS.
		if !d.top.CompareAndSwap(t, t+1) {
			// A thief won; the deque is empty.
			d.bottom.Store(b + 1)
			return core.Task{}, false
		}
		d.bottom.Store(b + 1)
		return task, true
	}
	return task, true
}

// steal removes the oldest task. Safe from any goroutine. A failed CAS
// means another thief (or the owner, on the last element) got there first;
// the loop re-reads top and retries until the deque is observed empty, so
// a steal attempt never spuriously fails while work remains.
func (d *deque) steal() (core.Task, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return core.Task{}, false
		}
		r := d.ring.Load()
		task := r.load(t)
		if d.top.CompareAndSwap(t, t+1) {
			return task, true
		}
	}
}

// grow replaces the ring with one at least twice its size and large enough
// for n more tasks, copying the live window [top, bottom). Owner only;
// called from a push with the pre-push top and bottom.
func (d *deque) grow(old *dequeRing, top, bottom, n int64) *dequeRing {
	size := old.size() * 2
	for size < bottom-top+n {
		size <<= 1
	}
	r := newDequeRing(size)
	for i := top; i < bottom; i++ {
		r.store(i, old.load(i))
	}
	d.ring.Store(r)
	return r
}
