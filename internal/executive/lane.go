package executive

import (
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// lane is one worker's pair of hand-off structures in the async manager:
// the ready lane it takes tasks from and the completion lane it queues
// finished tasks in. A worker's fast path touches only its own lane, so
// the cache lines every task writes are written by one worker and, once
// per management cycle, by the holder of the manager's mutex.
//
//   - ready is a Chase-Lev deque (deque.go) of at most the manager's
//     laneCap tasks. Whoever holds mu owns every ready lane and tops each
//     one up with one pushBottomN; the worker steals from its own lane's
//     top first, then from the other lanes', oldest first.
//   - comp is a bounded single-producer single-consumer ring of
//     completions (compLane): worker w writes its own, whoever holds mu
//     drains every lane's published run.
//   - open is the worker's open compute stretch — the dispatch stamp of
//     the task it is running, 0 = none — read and written by the worker
//     only.
//
// The groups are padded apart: the ready deque's words are written by
// thieves and the refilling owner, the producer's words by the worker on
// every task, the published tail by the worker once per batch and the
// head by the drainer once per cycle.
type lane struct {
	ready deque
	_     [64 - 24]byte
	comp  compLane
	open  clock.Stamp
	_     [64 - 8]byte
}

// compLane is a bounded single-producer single-consumer ring of
// completions — a core.Task and the compute time its worker measured for
// it. The producer is the lane's worker, the consumer whoever holds the
// async manager's mutex (one at a time, ordered by that mutex).
//
// Memory model: the producer writes a slot with plain stores and
// advances its private count (local); the slots it has written become
// visible only when it publishes, storing local into tail — the one store
// that carries every write before it to a consumer that loads tail. The
// consumer copies the published run [head, tail) out and then stores
// head, which hands the slots back: a producer that loads head sees the
// consumer's reads finished before it overwrites them. So between a
// publication and the next, the drainer sees nothing of what the worker
// queued; a worker must publish before it can leave the job or park
// (async.Enter's slow path and Flush do).
//
// The producer checks for room against its cached copy of head and loads
// head only when the cached copy says full; a full ring is refused, never
// overwritten, and the caller publishes and helps drain.
type compLane struct {
	// The producer's words: read-only after construction, or written by
	// the worker alone.
	slots  []compSlot
	mask   int64
	local  int64 // next slot to write
	pub    int64 // local as of the last publication
	headAt int64 // the producer's cached copy of head
	_      [64 - 56]byte
	tail   atomic.Int64 // published: slots below it are readable
	_      [64 - 8]byte
	head   atomic.Int64 // consumed: slots below it are free
	_      [64 - 8]byte
}

// compSlot is one queued completion.
type compSlot struct {
	task    core.Task
	compute time.Duration
}

// push queues t and its compute time without publishing them. Producer
// only. It reports false when the ring is full.
func (q *compLane) push(t core.Task, compute time.Duration) bool {
	size := q.mask + 1
	if q.local-q.headAt == size {
		if q.headAt = q.head.Load(); q.local-q.headAt == size {
			return false
		}
	}
	q.slots[q.local&q.mask] = compSlot{task: t, compute: compute}
	q.local++
	return true
}

// pending reports the completions queued since the last publication.
// Producer only.
func (q *compLane) pending() int64 { return q.local - q.pub }

// publish makes every queued completion visible to the drain with one
// store, and reports whether there was anything to publish. Producer only.
func (q *compLane) publish() bool {
	if q.local == q.pub {
		return false
	}
	q.pub = q.local
	q.tail.Store(q.local)
	return true
}

// drain appends the published run to dst in queue order, hands its slots
// back with one store of head, and returns dst with the run's summed
// compute time. Consumer only: the caller holds the manager's mutex.
func (q *compLane) drain(dst []core.Task) ([]core.Task, time.Duration) {
	h, t := q.head.Load(), q.tail.Load()
	if h == t {
		return dst, 0
	}
	var compute time.Duration
	for i := h; i < t; i++ {
		s := &q.slots[i&q.mask]
		dst = append(dst, s.task)
		compute += s.compute
	}
	q.head.Store(t)
	return dst, compute
}

// newLanes builds n lanes of readyCap ready slots and compCap completion
// slots each, carving the lanes, their deque rings and both kinds of
// slots from one slab apiece, so a manager's lanes cost four allocations
// whatever the worker count. Both capacities are rounded up to a power of
// two. A ready lane never grows: its owner pushes at most readyCap minus
// the occupancy it reads, and concurrent steals only lower that.
func newLanes(n, readyCap, compCap int) []lane {
	rsize, csize := pow2(readyCap), pow2(compCap)
	lanes := make([]lane, n)
	rings := make([]dequeRing, n)
	rslots := make([]dequeSlot, n*rsize)
	cslots := make([]compSlot, n*csize)
	for i := range lanes {
		rings[i] = dequeRing{mask: int64(rsize - 1), slots: rslots[i*rsize : (i+1)*rsize : (i+1)*rsize]}
		lanes[i].ready.ring.Store(&rings[i])
		c := &lanes[i].comp
		c.slots, c.mask = cslots[i*csize:(i+1)*csize:(i+1)*csize], int64(csize-1)
	}
	return lanes
}
