package sim

// This file is the engine's hot-path plumbing: the calendar queue of asks
// and completions, the compacting FIFO behind the Async ready buffers, and
// the parked-worker bitset. None of them allocates in steady state —
// backing arrays grow to a scale-independent high-water mark and are
// reused — and none goes through container/heap, whose interface boxing
// per Push and Pop used to dominate the profile at millions of granules.
//
// Determinism: the event queue orders by a strict total order (time, asks
// before completions at equal times, then insertion order). A total order
// means the data structure behind it cannot affect pop order, so none of
// this is visible to schedules — the golden suite pins that.

// mqueue is the event queue of asks and completions, ordered by
// (at, ask-before-completion, push order). It is a calendar queue rather
// than a heap: the engine's pushes are monotone (every event is scheduled
// at or after the time of the event being processed — completion
// finishes, re-asks, reopen retries and task-end events all derive from
// the current event's time), so near-future events land in a ring of
// per-tick buckets with O(1) push and pop, and only far-future events
// (beyond the mqWindow horizon — long serial actions, long tasks) take
// the slow path through a small overflow heap.
//
// An event is written once and read once. push builds it in a slot of
// one shared, freelisted slot array and links the slot to the tail of its
// bucket's ask or completion list; pop unlinks the head slot, copies its
// three words out, and frees it. The lists are intrusive (the link is a
// slot index inside the slot), so a bucket is four indices, the whole
// ring is 4 KiB, and the slot array is as long as the most events ever
// queued at once — about one per worker — however they cluster on ticks:
// with a thousand workers in lockstep a per-bucket array would have to
// grow to the cluster size in every one of the 256 buckets. Slots and
// keys hold no pointers, so the collector never scans them and their
// stores need no write barrier. Overflow migration moves an index.
//
// Slot lifetime: a slot belongs to its event from push until pop, and pop
// frees it BEFORE the handler runs — the handler's own pushes may reuse
// it, or grow (and so move) the slot array. That is why pop returns the
// event by value and nothing else in the engine holds a slot index or a
// pointer into slots.
//
// Determinism: the required order is a strict total order, and the
// bucket layout reproduces it literally — buckets advance in time order,
// each bucket chains asks and completions in separate push-order lists,
// and asks drain before completions. The overflow heap orders by the same
// key, numbering its own pushes (only overflow entries need an explicit
// sequence number: an event is there because its tick was beyond the
// horizon, so it was pushed before any same-tick event that went straight
// to a bucket), and entries migrate from it into buckets whenever the
// window advances, before any same-tick bucket pushes can land behind
// them, so FIFO-within-tick is preserved across the two structures.
// TestMqueueModel checks all of this against a sorted reference; the
// golden suite pins the schedules.
type mqueue struct {
	base    int64 // time of buckets[cursor]; the window is [base, base+mqWindow)
	cursor  int   // ring index of the bucket at time base
	minTime int64 // earliest queued time when minOK; otherwise a lower-bound scan hint
	minOK   bool
	n       int // items in the bucket window
	buckets []mbucket
	slots   []mslot // shared event store; slot 0 is the nil link
	free    int32   // head of the free-slot chain (0 = none)
	over    []mkey  // 4-ary min-heap of events beyond the window horizon
	overSeq uint64  // overflow pushes so far
}

// mslot is a queued event minus its time, which its bucket (or overflow
// key) implies, plus the link to the next slot of its list.
type mslot struct {
	gen  int64
	proc int32
	job  int32
	next int32
}

// mbucket is one tick: the ask list and the completion list, each a
// head and tail slot index (0 = empty).
type mbucket struct {
	list [2]struct{ head, tail int32 }
}

const (
	askList  = 0
	doneList = 1
)

type mkey struct {
	at  int64
	ord uint64 // completion<<62 | overflow push number
	idx int32
}

const mqDoneBit = uint64(1) << 62

func keyLess(a, b mkey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// mqWindow is the bucket horizon. It comfortably covers task durations
// and management costs at any grain the experiments use; events farther
// out are rare (phase serial actions) and pay one overflow-heap hop.
const mqWindow = 256

func (h *mqueue) empty() bool { return h.n == 0 && len(h.over) == 0 }

func (b *mbucket) empty() bool { return b.list[askList].head == 0 && b.list[doneList].head == 0 }

// link appends slot idx — fresh from push, its next link still nil — to
// the list of the bucket delta ticks after base (delta < mqWindow).
func (h *mqueue) link(delta int64, list int, idx int32) {
	l := &h.buckets[(h.cursor+int(delta))&(mqWindow-1)].list[list]
	if l.tail != 0 {
		h.slots[l.tail].next = idx
	} else {
		l.head = idx
	}
	l.tail = idx
	h.n++
}

// reserve builds the queue's storage, before the first push, for n events
// queued at once — the engine queues about one per worker — so that a
// run's slot array and overflow heap are made once: the bucket ring, n
// slots past the nil link, and room for all n in the overflow. Both grow
// by append past n.
func (h *mqueue) reserve(n int) {
	h.buckets = make([]mbucket, mqWindow)
	h.slots = make([]mslot, 1, n+1)
	h.over = make([]mkey, 0, n)
}

func (h *mqueue) push(it mitem) {
	// base is the time of the last pop — of the event now being served —
	// also when that pop emptied the queue: re-anchoring the window at the
	// first event pushed into an empty queue would refuse a later push of the
	// same handler that lands before it (a completion far out, then a wake
	// at the current time).
	delta := it.at - h.base
	if delta < 0 {
		panic("sim: event pushed before the current virtual time")
	}
	idx := h.free
	if idx != 0 {
		h.free = h.slots[idx].next
	} else {
		idx = int32(len(h.slots))
		h.slots = append(h.slots, mslot{})
	}
	h.slots[idx] = mslot{gen: it.gen, proc: it.proc, job: it.job}
	list := askList
	if it.isDone() {
		list = doneList
	}
	if delta < mqWindow {
		h.link(delta, list, idx)
	} else {
		h.overSeq++
		h.overPush(mkey{at: it.at, ord: uint64(list)<<62 | h.overSeq, idx: idx})
	}
	if h.n+len(h.over) == 1 {
		h.minTime, h.minOK = it.at, true // the only event: no scan from base
	} else if h.minOK && it.at < h.minTime {
		h.minTime = it.at
	}
	// When !minOK, minTime is a lower-bound hint (all queued times are
	// >= it, and pushes land at >= base >= hint), so it stays valid as
	// the scan start.
}

// ensureMin locates the earliest queued time. Window items always beat
// the overflow (migration keeps every overflow time >= base+mqWindow),
// so the scan walks buckets from the hint forward and falls back to the
// overflow top only when the window is empty.
func (h *mqueue) ensureMin() {
	if h.minOK {
		return
	}
	if h.n > 0 {
		d := int(h.minTime - h.base)
		if d < 0 {
			d = 0
		}
		for h.buckets[(h.cursor+d)&(mqWindow-1)].empty() {
			d++
		}
		h.minTime = h.base + int64(d)
		h.minOK = true
	} else if len(h.over) > 0 {
		h.minTime = h.over[0].at
		h.minOK = true
	}
}

// pop removes and returns the earliest event; ok is false on an empty
// queue.
func (h *mqueue) pop() (it mitem, ok bool) {
	if h.empty() {
		return mitem{}, false
	}
	h.ensureMin()
	if h.n == 0 {
		// The earliest event lives in the overflow: jump the window.
		h.base = h.minTime
		h.cursor = 0
		h.migrate()
	} else if h.minTime > h.base {
		h.cursor = (h.cursor + int(h.minTime-h.base)) & (mqWindow - 1)
		h.base = h.minTime
		if len(h.over) > 0 {
			h.migrate()
		}
	}
	b := &h.buckets[h.cursor]
	l := &b.list[askList]
	if l.head == 0 {
		l = &b.list[doneList]
	}
	idx := l.head
	sl := &h.slots[idx]
	it = mitem{at: h.base, gen: sl.gen, proc: sl.proc, job: sl.job}
	if l.head = sl.next; l.head == 0 {
		l.tail = 0
		if b.empty() {
			h.minOK = false // minTime remains the scan hint
		}
	}
	sl.next = h.free
	h.free = idx
	h.n--
	return it, true
}

// migrate moves overflow events that the advanced window now covers into
// their buckets. It runs on every window advance, before any new pushes
// can land in those buckets, so migrated items keep their push-order
// position in the per-tick lists.
func (h *mqueue) migrate() {
	for len(h.over) > 0 && h.over[0].at < h.base+mqWindow {
		k := h.overPop()
		h.link(k.at-h.base, int(k.ord>>62), k.idx)
	}
}

func (h *mqueue) peekTime() (int64, bool) {
	if h.empty() {
		return 0, false
	}
	h.ensureMin()
	return h.minTime, true
}

// askWouldPopFirst reports whether a fresh ask pushed now at time at
// would be the very next item popped: nothing queued orders before a new
// ask at at (an existing ask at the same time was pushed earlier and
// wins; an existing completion at the same time loses — asks drain
// first). The completion path uses this to serve a worker's re-ask
// inline, skipping a queue round trip.
func (h *mqueue) askWouldPopFirst(at int64) bool {
	if h.empty() {
		return true
	}
	h.ensureMin()
	if h.minTime != at {
		return h.minTime > at
	}
	if h.n > 0 {
		return h.buckets[(h.cursor+int(at-h.base))&(mqWindow-1)].list[askList].head == 0
	}
	return h.over[0].ord >= mqDoneBit
}

// overPush/overPop maintain the overflow as a 4-ary min-heap of keys
// ordered by keyLess; the events stay in the shared slot array.
func (h *mqueue) overPush(k mkey) {
	s := append(h.over, k)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !keyLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	h.over = s
}

func (h *mqueue) overPop() mkey {
	s := h.over
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	h.over = s
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if keyLess(s[k], s[m]) {
				m = k
			}
		}
		if !keyLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// fifo is a first-in-first-out queue over one backing array: each job's
// Async ready buffer. Popping by reslicing (q = q[1:]) and
// pushing with append marches the array forward and reallocates it every
// cap-len pops; the fifo pops by advancing a head index and compacts in
// place when a push hits the array's end with dead space at the front, so
// a warmed-up run never allocates for it again.
type fifo[T any] struct {
	buf  []T
	head int
}

func (r *fifo[T]) push(q T) {
	if r.head > 0 && len(r.buf) == cap(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:n]
		r.head = 0
	}
	r.buf = append(r.buf, q)
}

func (r *fifo[T]) pop() T {
	q := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.clear()
	}
	return q
}

func (r *fifo[T]) len() int { return len(r.buf) - r.head }

func (r *fifo[T]) clear() { r.buf, r.head = r.buf[:0], 0 }

// parkedSet tracks parked workers as a bitset so wake passes iterate
// only the set bits instead of scanning every worker: with a thousand
// busy workers and nobody parked, a wake is sixteen zero-word loads, not
// a thousand boolean tests. Iteration is in ascending worker order —
// the same order the old linear scan used, so wake fairness (and the
// golden schedules) are unchanged.
type parkedSet struct {
	words []uint64
}

func newParkedSet(n int) parkedSet {
	return parkedSet{words: make([]uint64, (n+63)/64)}
}

func (p *parkedSet) set(w int)   { p.words[w>>6] |= 1 << (w & 63) }
func (p *parkedSet) clear(w int) { p.words[w>>6] &^= 1 << (w & 63) }
