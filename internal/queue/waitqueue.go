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

// Wait is the PAX waiting computation queue over its own arena of records:
// a fixed set of priority classes, each a double circularly-linked ring,
// dispatched in class order. Class c's ring is headed by record 1+c, made
// with the arena, so a record's class is where it is linked and never needs
// recording. The zero value is ready to use. Not safe for concurrent use.
type Wait[T any] struct {
	Arena[T]
	n int // records linked into the class rings
}

// head returns the sentinel heading class c's ring.
func head(c Class) Index { return Index(1 + c) }

// New returns a detached record, as Arena.New does, making the class heads
// first on the first call.
func (w *Wait[T]) New() Index {
	if len(w.recs) == 0 {
		for range numClasses {
			w.NewRing()
		}
	}
	return w.Arena.New()
}

// Empty reports whether no entries are queued.
func (w *Wait[T]) Empty() bool { return w.n == 0 }

// Push links record i at the back of class c.
func (w *Wait[T]) Push(i Index, c Class) {
	w.PushBack(head(c), i)
	w.n++
}

// Peek returns the highest-priority entry — the front of the
// lowest-numbered non-empty class — with its class, without removing it.
// The Index is 0 when the queue is empty.
func (w *Wait[T]) Peek() (Index, Class) {
	if w.n == 0 {
		return 0, 0
	}
	for c := range numClasses {
		if i := w.Front(head(c)); i != 0 {
			return i, c
		}
	}
	panic("queue: entries counted but no class holds one")
}

// Remove unlinks queued record i from its class.
func (w *Wait[T]) Remove(i Index) {
	w.Arena.Remove(i)
	w.n--
}

// Promote moves every entry of class from to the back of class to,
// preserving FIFO order, in O(1). The scheduler uses this when an
// overlapped successor phase becomes the current phase: its Background
// entries become Normal work.
func (w *Wait[T]) Promote(from, to Class) {
	if w.n > 0 {
		w.Splice(head(from), head(to))
	}
}

// Each calls f for every queued entry in dispatch order, with its class. f
// may remove the entry it is given and push others, as Arena.Each allows.
func (w *Wait[T]) Each(f func(i Index, c Class)) {
	if len(w.recs) == 0 {
		return
	}
	for c := range numClasses {
		w.Arena.Each(head(c), func(i Index) { f(i, c) })
	}
}
