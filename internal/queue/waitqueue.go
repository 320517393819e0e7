package queue

import "fmt"

// Class is the priority class of an entry in the waiting computation queue.
// The queue is "kept in a known order": all entries of a lower-numbered
// class are dispatched before any entry of a higher-numbered class, FIFO
// within a class.
type Class uint8

const (
	// Elevated holds current-phase granules whose priority was raised
	// because they enable an identified successor subset (the paper's
	// "placed in the waiting computation queue in such a manner as to
	// elevate their computational priority").
	Elevated Class = iota
	// Released holds computations released from a conflict queue — e.g.
	// successor-phase granules enabled by a completed current-phase
	// description. PAX placed these "ahead of the normal computations".
	Released
	// Normal holds ordinary current-phase work.
	Normal
	// Background holds overlapped successor-phase work that fills in only
	// when nothing above is available — e.g. a universally-mapped successor
	// phase, which PAX placed "behind the current phase description".
	Background
	numClasses
)

// NumClasses is the number of priority classes.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case Elevated:
		return "elevated"
	case Released:
		return "released"
	case Normal:
		return "normal"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Wait is the PAX waiting computation queue: a fixed set of priority
// classes, each a double circularly-linked ring, dispatched in class order.
// Each class is bound to its ring by pointer, so that promotion into an
// empty class swaps two pointers. The zero value is ready to use. Not safe
// for concurrent use.
type Wait[T any] struct {
	classes [numClasses]*Ring[T] // class -> ring; nil until first use, then a permutation of rings
	rings   [numClasses]Ring[T]
	n       int
}

// NewWait returns an empty waiting computation queue.
func NewWait[T any]() *Wait[T] { return &Wait[T]{} }

// ring returns the ring class c is bound to, binding every class on first
// use. A queue with entries is always bound.
func (w *Wait[T]) ring(c Class) *Ring[T] {
	if w.classes[c] == nil {
		for i := range w.classes {
			w.classes[i] = &w.rings[i]
		}
	}
	return w.classes[c]
}

// Empty reports whether no entries are queued.
func (w *Wait[T]) Empty() bool { return w.n == 0 }

// Push appends node n to the back of class c.
func (w *Wait[T]) Push(n *Node[T], c Class) {
	w.ring(c).PushBack(n)
	w.n++
}

// Peek returns the highest-priority entry — the front of the
// lowest-numbered non-empty class — with its class, without removing it. ok
// is false when the queue is empty.
func (w *Wait[T]) Peek() (n *Node[T], c Class, ok bool) {
	if w.n == 0 {
		return nil, 0, false
	}
	for ci := range w.classes {
		if r := w.classes[ci]; r.n > 0 {
			return r.head.next, Class(ci), true
		}
	}
	panic("queue: entries counted but no class holds one")
}

// Remove unlinks n from class c. The caller must pass the class the node
// currently occupies.
func (w *Wait[T]) Remove(n *Node[T], c Class) {
	w.ring(c).Remove(n)
	w.n--
}

// Promote moves every entry of class from to the back of class to,
// preserving FIFO order. The scheduler uses this when an overlapped
// successor phase becomes the current phase: its Background entries become
// Normal work. Into an empty class it swaps the two classes' rings, so
// every node stays in its ring; otherwise it moves the nodes one by one.
func (w *Wait[T]) Promote(from, to Class) {
	src, dst := w.ring(from), w.ring(to)
	if dst.Empty() {
		w.classes[from], w.classes[to] = dst, src
		return
	}
	src.DrainInto(dst)
}

// Each calls f for every queued entry in dispatch order, with its class.
func (w *Wait[T]) Each(f func(n *Node[T], c Class)) {
	for c := Class(0); c < numClasses; c++ {
		w.ring(c).Each(func(n *Node[T]) { f(n, c) })
	}
}
