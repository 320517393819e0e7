package executive

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/granule"
)

// deque is a ready lane: a fixed-capacity ring of core.Tasks with one
// producer at a time and any number of consumers — the steal half of a
// Chase-Lev work-stealing deque (Chase & Lev, "Dynamic Circular
// Work-Stealing Deque", SPAA 2005; atomics ordered per Lê et al., "Correct
// and Efficient Work-Stealing for Weak Memory Models", PPoPP 2013 — Go's
// sync/atomic operations are sequentially consistent, so every fence in
// that formulation is implied). The producer is whoever holds the lane
// manager's state-machine mutex (lane.go), the hand-off ordered by that
// mutex; every consumer, the lane's own worker included, takes the oldest
// task with steal.
//
//   - The producer appends a batch at the bottom with plain atomic loads
//     and stores — no lock, no CAS — and never past the ring's capacity:
//     it reads size first and pushes at most what is free. The ring is
//     sized once (newLanes) and never grows.
//   - Consumers take the oldest task at the top with one CAS each. top
//     only ever increases, so a stale read of it can only make a CAS fail,
//     never succeed wrongly: the counter is ABA-free by monotonicity.
//
// Memory model: bottom is written only by the producer, and a push
// publishes its slot writes before the bottom store (all seq-cst), so a
// consumer that observes the new bottom also observes the slot contents;
// top is written only by the consumers' CAS.
//
// Slot contents are two independent atomic words: head = ID<<32 |
// uint32(Phase) and run = Lo<<32 | uint32(Hi). core bounds every Task
// field to 31 bits (an ID is an arena index below 2^31, a phase an int32,
// a granule at most maxGranules = 2^31-1), so the packing is exact. A
// consumer's read of a slot can therefore tear — but only if the producer
// concurrently reuses the slot for a new push, which requires a push index
// a full ring past the consumer's, which the producer writes only once top
// has advanced past the consumer's index: the consumer's CAS on the old
// top value then necessarily fails and the torn read is discarded. A
// successful CAS proves both words were stable for the whole read. Atomic
// word access keeps the race detector precise about all of this: every
// flagged interleaving would be a real protocol violation.
//
// A slot stays 32 bytes wide — two slots to a cache line — though it
// needs 16: a 16-byte stride measured 5–10 % slower when one shared buffer
// was pushed and stolen from at both ends (EXPERIMENTS.md, *two-word deque
// slots*).
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	mask   int64 // the ring's size (a power of two) less one
	slots  []dequeSlot
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

func (d *deque) load(i int64) core.Task {
	s := &d.slots[i&d.mask]
	return unpack(s.head.Load(), s.run.Load())
}

func (d *deque) store(i int64, t core.Task) {
	s := &d.slots[i&d.mask]
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

// pow2 rounds n up to a power of two, at least 1.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// size reports bottom-top. It is an upper bound for the producer —
// concurrent steals only lower it — and a moment-in-time estimate for
// anyone else.
func (d *deque) size() int64 {
	return d.bottom.Load() - d.top.Load()
}

// pushBottomN appends ts at the bottom in order — ts[0] is taken first —
// and publishes the whole batch with one store of bottom, so a consumer
// sees none of the batch or all of it. Producer only, and ts must fit in
// what size left free: a longer batch overwrites live slots.
func (d *deque) pushBottomN(ts []core.Task) {
	if len(ts) == 0 {
		return
	}
	b := d.bottom.Load()
	for i, t := range ts {
		d.store(b+int64(i), t)
	}
	d.bottom.Store(b + int64(len(ts)))
}

// steal removes the oldest task. Safe from any goroutine. A failed CAS
// means another consumer got there first; the loop re-reads top and
// retries until the deque is observed empty, so a steal attempt never
// spuriously fails while work remains.
func (d *deque) steal() (core.Task, bool) {
	for {
		t := d.top.Load()
		if t >= d.bottom.Load() {
			return core.Task{}, false
		}
		task := d.load(t)
		if d.top.CompareAndSwap(t, t+1) {
			return task, true
		}
	}
}
