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
// The waiting queue binds each class to its ring by pointer: promoting a
// class into an empty one (an overlapped phase's background work becoming
// normal work) re-points the two classes instead of walking the nodes
// across, so every node keeps its ring, which now answers for the new class.
package queue

// Node is an element of a Ring. A Node belongs to at most one Ring at a
// time; inserting an attached node panics (it indicates executive-logic
// corruption, which must not be masked).
type Node[T any] struct {
	prev, next *Node[T]
	ring       *Ring[T]
	Value      T
}

// NewNode returns a detached node carrying v.
func NewNode[T any](v T) *Node[T] { return &Node[T]{Value: v} }

// Attached reports whether the node is currently linked into a ring.
func (n *Node[T]) Attached() bool { return n.ring != nil }

// Ring is a double circularly-linked list with a sentinel head, the queue
// structure of the PAX executive. All operations are O(1) except the
// traversals (Each, DrainInto). The zero Ring is an empty ring ready to
// use. Ring is not safe for concurrent use.
type Ring[T any] struct {
	head Node[T] // sentinel; head.next = front, head.prev = back
	n    int
}

// NewRing returns an initialized empty ring.
func NewRing[T any]() *Ring[T] {
	r := &Ring[T]{}
	r.Init()
	return r
}

// Init (re)initializes the ring to empty. Any nodes previously attached are
// abandoned (their ring pointers are left stale only if the caller discards
// them; Init is intended for fresh rings).
func (r *Ring[T]) Init() {
	r.head.prev = &r.head
	r.head.next = &r.head
	r.head.ring = r
	r.n = 0
}

func (r *Ring[T]) lazyInit() {
	if r.head.next == nil {
		r.Init()
	}
}

// Len reports the number of nodes in the ring.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring has no nodes.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// PushBack inserts n at the back of the ring.
func (r *Ring[T]) PushBack(n *Node[T]) {
	if n.ring != nil {
		panic("queue: inserting attached node")
	}
	r.lazyInit()
	back := r.head.prev
	n.prev, n.next = back, &r.head
	back.next, r.head.prev = n, n
	n.ring = r
	r.n++
}

// Remove unlinks n from the ring. It panics if n is not attached to r.
func (r *Ring[T]) Remove(n *Node[T]) {
	if n.ring != r {
		panic("queue: removing node not in this ring")
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = nil
	n.ring = nil
	r.n--
}

// Front returns the first node, or nil when empty.
func (r *Ring[T]) Front() *Node[T] {
	if r.n == 0 {
		return nil
	}
	return r.head.next
}

// PopFront removes and returns the first node, or nil when empty.
func (r *Ring[T]) PopFront() *Node[T] {
	n := r.Front()
	if n != nil {
		r.Remove(n)
	}
	return n
}

// Each calls f on every node value from front to back. f must not modify
// the ring except through the provided node (removal of the current node
// while iterating is safe because next is captured first).
func (r *Ring[T]) Each(f func(n *Node[T])) {
	r.lazyInit()
	for n := r.head.next; n != &r.head; {
		next := n.next
		f(n)
		n = next
	}
}

// DrainInto removes every node from r (front to back) and appends it to the
// back of dst.
func (r *Ring[T]) DrainInto(dst *Ring[T]) {
	for {
		n := r.PopFront()
		if n == nil {
			return
		}
		dst.PushBack(n)
	}
}
