// Package queue implements the queueing structures of the PAX executive as
// described in Jones (1986): a double circularly-linked list with a queue
// head, and the priority-classed waiting computation queue built on top of
// it — one ring per class, dispatched in class order.
//
// The paper: "each internal description of one (or more) computational
// granules included a queue head for a double circularly-linked list of
// computable but conflicting computational granules. Upon completion of the
// described computation, all the queued conflicting computations became
// unconditionally computable and were placed in the waiting computation
// queue. The waiting computation queue was kept in a known order and ...
// such conflicting computations would be placed ahead of the normal
// computations in the queue and, thus, given higher priority." (The
// conflict queue occurs in one shape only, and internal/core keeps it as a
// bare successor range on the description.)
//
// The rings live in an Arena: one pointer-free slice of records, each a
// value and its two ring links, which name other records by Index. A ring's
// head is a sentinel record of the same arena, so linking, unlinking and
// splicing a whole ring onto another touch only records — never an
// allocation, and nothing for the garbage collector to scan.
package queue

import "math"

// Index names a record of an Arena: its position in the arena's slice. It
// stays valid for the record's life, across the arena's growth. The zero
// Index names no record.
type Index uint32

// record is one arena slot: a value and its ring links. prev is zero
// exactly when the record is in no ring (a ring's head links to itself).
type record[T any] struct {
	prev, next Index
	val        T
}

// Arena is a pointer-free store of records of T, each able to sit in one
// double circularly-linked ring of the same arena. Retired records are
// recycled, newest first. The zero Arena is empty and ready to use. Arena
// is not safe for concurrent use.
type Arena[T any] struct {
	recs []record[T] // recs[0] is the nil record
	free Index       // retired records, linked through next
}

// New returns a detached record holding the zero T: a retired one when
// there is one, else a fresh one. New may move the arena, so a pointer
// taken by At before the call is stale after it.
func (a *Arena[T]) New() Index {
	if i := a.free; i != 0 {
		a.free, a.recs[i].next = a.recs[i].next, 0
		return i
	}
	if len(a.recs) == cap(a.recs) {
		a.grow()
	}
	a.recs = a.recs[:len(a.recs)+1]
	return Index(len(a.recs) - 1)
}

// grow doubles the arena's capacity. (append would grow a long slice by a
// quarter at a time, copying each record about five times over instead of
// once.)
func (a *Arena[T]) grow() {
	if len(a.recs) == 0 {
		a.recs = make([]record[T], 1, 64)
		return
	}
	if len(a.recs) > math.MaxUint32/2 {
		panic("queue: arena full")
	}
	recs := make([]record[T], len(a.recs), 2*cap(a.recs))
	copy(recs, a.recs)
	a.recs = recs
}

// Free retires detached record i, zeroing its value. It panics if i is in a
// ring.
func (a *Arena[T]) Free(i Index) {
	r := &a.recs[i]
	if r.prev != 0 {
		panic("queue: freeing a record in a ring")
	}
	*r = record[T]{next: a.free}
	a.free = i
}

// At returns the value of record i. The pointer is valid until the next
// New.
func (a *Arena[T]) At(i Index) *T { return &a.recs[i].val }

// Len reports how many records the arena holds, the nil record and retired
// ones included: every live Index is below it.
func (a *Arena[T]) Len() int { return len(a.recs) }

// NewRing returns the head of a new empty ring: a sentinel record linked to
// itself.
func (a *Arena[T]) NewRing() Index {
	h := a.New()
	a.recs[h].prev, a.recs[h].next = h, h
	return h
}

// Front returns the first record of the ring headed by h, or 0 when it is
// empty.
func (a *Arena[T]) Front(h Index) Index {
	if i := a.recs[h].next; i != h {
		return i
	}
	return 0
}

// PushBack links detached record i at the back of the ring headed by h. It
// panics if i is already in a ring: that indicates executive-logic
// corruption, which must not be masked.
func (a *Arena[T]) PushBack(h, i Index) {
	r := &a.recs[i]
	if r.prev != 0 {
		panic("queue: inserting a record already in a ring")
	}
	back := a.recs[h].prev
	r.prev, r.next = back, h
	a.recs[back].next, a.recs[h].prev = i, i
}

// Remove unlinks record i from its ring. It panics if i is in none.
func (a *Arena[T]) Remove(i Index) {
	r := &a.recs[i]
	if r.prev == 0 {
		panic("queue: removing a record in no ring")
	}
	a.recs[r.prev].next, a.recs[r.next].prev = r.next, r.prev
	r.prev, r.next = 0, 0
}

// Each calls f on every record of the ring headed by h, front to back. f
// may remove the record it is given, and may push records onto any ring:
// the walk reaches those pushed behind the record it is at.
func (a *Arena[T]) Each(h Index, f func(i Index)) {
	for i := a.recs[h].next; i != h; {
		next := a.recs[i].next
		f(i)
		i = next
	}
}

// Splice moves every record of the ring headed by src, in order, to the
// back of the ring headed by dst, in O(1): the records keep their links to
// each other, and only the two ends are relinked.
func (a *Arena[T]) Splice(src, dst Index) {
	first, last := a.recs[src].next, a.recs[src].prev
	if first == src {
		return
	}
	back := a.recs[dst].prev
	a.recs[back].next, a.recs[first].prev = first, back
	a.recs[last].next, a.recs[dst].prev = dst, last
	a.recs[src].prev, a.recs[src].next = src, src
}
