package executive

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// mpsc is a bounded lock-free multi-producer single-consumer queue of
// completions — a core.Task and the compute time its worker measured for
// it: the completion channel between the worker goroutines (any number of
// producers) and the async manager's management goroutine (one consumer
// at a time — whoever holds the manager's state-machine mutex), which
// totals both under that mutex.
// It is the bounded-ring sibling of deque.go's Chase-Lev deque, built on
// the same atomic-slot discipline, but specialized the other way around:
// the deque has one producer and many thieves, this queue many producers
// and one drainer.
//
// The protocol is the Vyukov bounded queue: each slot carries a sequence
// number that encodes which lap of the ring it is on and whether it holds
// data.
//
//   - A producer reads tail; if the slot's seq equals tail the slot is
//     free on this lap, and the producer claims it by CASing tail
//     forward. tail, like the deque's top, is ABA-free by monotonicity: a
//     stale read can only make the CAS fail. Having claimed the slot, the
//     producer owns it exclusively — it stores the task with plain writes
//     and then publishes seq = tail+1 (seq-cst), so a consumer that
//     observes the published seq also observes the task words.
//   - The consumer reads head; if the slot's seq equals head+1 the slot
//     holds data for this lap. It reads the task, then releases the slot
//     for the next lap by storing seq = head + ring size, and advances
//     head. head is read and written only under the manager's
//     state-machine mutex (single consumer); producers never read it —
//     the slot's seq tells them whether the consumer has released it.
//     head stays an atomic word anyway: a plain int64 in its place
//     measured no faster (EXPERIMENTS.md, *two-word deque slots*).
//   - A producer that finds seq < tail is a full ring (the consumer has
//     not yet released the slot from the previous lap): push reports
//     false and the caller falls back to draining inline. seq > tail
//     means another producer already claimed past this tail; reload and
//     retry.
//
// A claimed-but-unpublished slot (producer between the CAS and the seq
// store) makes pop report empty even though tail has moved past it. That transient
// under-read is safe everywhere it is observed: the producer rings the
// manager's doorbell after publishing, so the item is never silently
// stranded, and the stall detector keys on the state machine's InFlight
// count, which includes the completion until it is actually applied.
type mpsc struct {
	mask  int64
	slots []mpscSlot
	tail  atomic.Int64 // next slot to claim (producers, CAS)
	head  atomic.Int64 // next slot to pop (consumer only; see the header for why atomic)
}

// mpscSlot is one ring slot: the lap/state sequence word plus the task and
// its compute time, which are written and read only inside the
// seq-established happens-before edges.
type mpscSlot struct {
	seq     atomic.Int64
	task    core.Task
	compute time.Duration
}

// newMPSC sizes the ring for at least capHint entries (rounded up to a
// power of two, minimum 8). The queue does not grow: push reports false
// when full and the caller drains inline.
func newMPSC(capHint int) *mpsc {
	size := int64(8)
	for size < int64(capHint) {
		size <<= 1
	}
	q := &mpsc{mask: size - 1, slots: make([]mpscSlot, size)}
	for i := range q.slots {
		q.slots[i].seq.Store(int64(i))
	}
	return q
}

// push appends t with its compute time. Safe from any goroutine. It
// reports false when the ring is full — the caller must drain (or help the
// drainer) and retry, never drop the task.
func (q *mpsc) push(t core.Task, compute time.Duration) bool {
	for {
		pos := q.tail.Load()
		s := &q.slots[pos&q.mask]
		switch seq := s.seq.Load(); {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				s.task, s.compute = t, compute
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // previous lap not yet consumed: full
		}
		// seq > pos: another producer claimed this slot first; reload tail.
	}
}

// pop removes the oldest published task. Single consumer: only the holder
// of the manager's state-machine mutex may call it. ok=false means no
// published task is available right now (empty, or the head producer has
// claimed but not yet published its slot).
func (q *mpsc) pop() (core.Task, time.Duration, bool) {
	pos := q.head.Load()
	s := &q.slots[pos&q.mask]
	if s.seq.Load() != pos+1 {
		return core.Task{}, 0, false
	}
	t, compute := s.task, s.compute
	s.seq.Store(pos + q.mask + 1) // release the slot for the next lap
	q.head.Store(pos + 1)
	return t, compute, true
}
