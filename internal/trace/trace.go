// Package trace is the flight recorder: a low-overhead structured event
// log of every scheduling decision a run makes — dispatches, completions,
// steals, backfill grants, parks, batch retunes, aborts — captured from
// any backend (the deterministic simulator, the goroutine executive, or
// the multi-tenant pool) in one common record format.
//
// The recording hot path is built for the goroutine backends: each worker
// appends to its own Ring — fixed-size chunks, owner-only writes published
// by one atomic store, no lock and no allocation in steady state — a
// global atomic sequence number stamps causal order across rings, and
// rare events from non-worker contexts (a controller retune under the
// manager lock, an abort from an arbitrary goroutine) go through the
// mutex-guarded Recorder.Emit side channel, a ring of its own. The
// simulator emits into ring 0 from its single event-loop goroutine,
// stamping virtual times directly.
//
// The read side takes no lock a recording worker takes, so it runs at any
// time — after a one-shot run or against a pool that has been recording
// for a week. Take merges everything retained into a Trace ordered by
// (Time, Seq); TakeJob reads one job's schedule out of an extent — two
// Cursors the recording pool took when the job started and retired — at
// the cost of the events inside the extent, whatever came before. Because
// every emitter records a completion BEFORE submitting it to management
// and a dispatch AFTER management hands the task out, any dispatch
// enabled by a completion carries a larger Seq — so the merged order is a
// valid causal schedule even when coarse clocks produce equal timestamps.
// A recorder built with NewBounded retains a fixed budget per ring and
// recycles older chunks, so one left on for a process's life has flat
// memory; TakeJob says ErrRecycled when an extent has slid out.
//
// Traces round-trip through a versioned binary file format (file.go),
// diff against each other (diff.go), replay in the simulator
// (sim.Replay), and export to JSON (export.go). A trace is also the only
// record of a run's busy time: EachBusy derives every task's busy interval
// from it — from the KDispatch of a virtual trace, the KComplete of a
// wall-clock one — and the utilization curve (Timeline) and the ASCII
// chart (Gantt) of every backend are views of those intervals.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// Kind classifies one scheduling decision.
type Kind uint8

const (
	// KStart marks the run's begin (Arg: the scheduler's start cost in
	// virtual traces).
	KStart Kind = 1 + iota
	// KDispatch records a task handed to a worker: Proc executes granules
	// [Lo, Hi) of Phase for Job. In virtual traces Arg is the task's
	// charged compute cost — fault stretching included — and the task's
	// busy interval is [Time, Time+Arg); wall-clock traces leave it 0 (the
	// duration is known only at completion).
	KDispatch
	// KComplete records a task finishing on Proc: granules [Lo, Hi) of
	// Phase for Job. Arg is the task's duration — virtual compute cost in
	// simulator traces, wall nanoseconds in executive/pool traces — so a
	// wall-clock trace reconstructs busy intervals as [Time-Arg, Time).
	KComplete
	// KStealAttempt / KStealWin / KStealLose record a sharded-manager
	// steal sweep by Proc: the attempt when the sweep starts, then either
	// a win (Arg: the victim worker, Lo/Hi: the first stolen task's
	// range) or a loss (every victim was dry). Traces written before the
	// wall-clock loops merged carry them; no backend records them now (the
	// managers no longer see the recorder — the steal counters of the
	// metric set are the live form).
	KStealAttempt
	KStealWin
	KStealLose
	// KBackfill records a cross-job grant: the KDispatch it accompanies
	// gave Proc a task from a job it is not homed on (rundown fill).
	KBackfill
	// KPark / KUnpark bracket a worker idling: KPark when Proc gives up
	// finding work, KUnpark when it resumes (Arg: the idle span, virtual
	// units or wall nanoseconds, when the emitter knows it).
	KPark
	KUnpark
	// KRetune records the adaptive controller changing the batch knobs
	// (Arg: the new refill capacity).
	KRetune
	// KAbort records a run failing or being cancelled.
	KAbort
	// KFinish marks the run's end (Time: the makespan in virtual traces).
	KFinish
	// KMark records a deterministic observation mark: the virtual-time
	// point where the simulator's Observer emitted a Snapshot. At equal
	// virtual timestamps marks order BEFORE the events the same loop
	// iteration then processes (see §"ordering" in DESIGN.md), pinned by
	// the trace-order golden test.
	KMark
	// KFault records an injected fault firing (internal/fault): Arg is
	// the fault.Kind, Proc/Job/Phase/[Lo,Hi) locate the victim where the
	// fault has one. Appended after KMark so pre-fault binary traces
	// replay unchanged.
	KFault
	// KRetry records a job restarting after a retryable failure: Job is
	// the retried job, Arg the attempt number just begun (2 = first
	// retry). Granules completed by earlier attempts re-run, so per-job
	// conservation holds from the LAST KRetry onward (Trace.FilterJob
	// cuts there).
	KRetry
)

var kindNames = [...]string{
	KStart:        "start",
	KDispatch:     "dispatch",
	KComplete:     "complete",
	KStealAttempt: "steal-attempt",
	KStealWin:     "steal-win",
	KStealLose:    "steal-lose",
	KBackfill:     "backfill",
	KPark:         "park",
	KUnpark:       "unpark",
	KRetune:       "retune",
	KAbort:        "abort",
	KFinish:       "finish",
	KMark:         "mark",
	KFault:        "fault",
	KRetry:        "retry",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded scheduling decision. Proc, Job and Phase are -1
// when the event has no such association (e.g. a machine-wide mark).
type Event struct {
	// Seq is the global emission order: unique, monotone per emitting
	// goroutine, and causal across goroutines for the completion→dispatch
	// edge (see the package comment).
	Seq uint64
	// Time is when the decision happened: virtual units in simulator
	// traces, nanoseconds since the run's start in wall-clock traces
	// (Meta.TimeUnit says which).
	Time int64
	Kind Kind
	// Proc is the worker/processor involved.
	Proc int32
	// Job indexes the job in multi-program runs (0 in single-program).
	Job int32
	// Phase and [Lo, Hi) name the task's granule range.
	Phase  int32
	Lo, Hi uint32
	// Arg is per-kind payload (durations, victims, batch sizes).
	Arg int64
}

func (e Event) String() string {
	return fmt.Sprintf("#%d t=%d %s proc=%d job=%d phase=%d [%d,%d) arg=%d",
		e.Seq, e.Time, e.Kind, e.Proc, e.Job, e.Phase, e.Lo, e.Hi, e.Arg)
}

// Time units for Meta.TimeUnit.
const (
	UnitVirtual = "virtual" // deterministic simulator units
	UnitNanos   = "ns"      // wall-clock nanoseconds since run start
)

// PhaseMeta names one phase of the recorded program.
type PhaseMeta struct {
	Name     string `json:"name"`
	Granules int    `json:"granules"`
}

// Meta describes the run a trace was recorded from. It is stored as a
// JSON block in the file header so the format can grow fields without a
// version bump; unknown fields are ignored on read.
type Meta struct {
	// Version is the record-format version (set by the file writer).
	Version int `json:"version,omitempty"`
	// Backend names the recording machine: "virtual", "exec", or "pool".
	Backend string `json:"backend"`
	// Manager / Model name the management configuration (whichever side
	// of the pairing the backend used).
	Manager string `json:"manager,omitempty"`
	Model   string `json:"model,omitempty"`
	// Workers is the worker/processor count the run used.
	Workers int `json:"workers"`
	// TimeUnit is UnitVirtual or UnitNanos.
	TimeUnit string `json:"time_unit"`
	// Jobs names the jobs of a multi-program run, in index order.
	Jobs []string `json:"jobs,omitempty"`
	// Phases describes the (first job's) program, for replay cross-checks
	// and labeled exports.
	Phases []PhaseMeta `json:"phases,omitempty"`
}

// Virtual reports whether the trace's times are deterministic virtual
// units (diff compares them exactly; wall-clock times are never equal
// across runs and are compared structurally instead).
func (m *Meta) Virtual() bool { return m.TimeUnit == UnitVirtual }

// chunkEvents is the size of one Ring chunk: 48 KiB of events, small
// enough that a short run's trace stays cheap and large enough that the
// chunk-boundary work amortizes to nothing per Record.
const chunkEvents = 1024

// DefaultRetain is the per-ring retention, in events, of the recorder a
// long-lived pool keeps (NewBounded, rundown.NewTraceRecorder): about
// 12 MiB a ring once the ring has seen that much traffic.
const DefaultRetain = 256 << 10

// chunk is one fixed-size run of a ring's events: positions
// [base, base+chunkEvents), base a multiple of chunkEvents. A reader
// reaches it through the ring's directory, where the writer publishes it
// after base is written.
type chunk struct {
	base uint64
	next *chunk // free-list link, writer-owned
	ev   [chunkEvents]Event
}

// Ring is one worker's private event log: fixed-size chunks found
// through a directory indexed by position. Only the owning worker calls
// Record, which writes the event into the newest chunk and then
// publishes the ring's new length with one atomic store — no mutex, no
// CAS, and never a copy of what was already recorded. Everything below
// the published length is immutable, so any number of readers copy it
// with no lock while recording continues (Recorder.Take,
// Recorder.TakeJob), seeking straight to the positions they want; a
// worker never waits for a reader.
//
// The directory of an unbounded ring grows (by doubling — pointers only,
// one per chunk). A bounded ring's is circular: the chunk that starts
// position n takes the slot of the one that started n - budget, which
// is thereby retired. The retired chunk's memory is reused only if no
// reader was inside the ring at that moment — readers announce
// themselves in a counter before they load a slot, the writer empties
// the slot before it checks the counter, so one side always sees the
// other — and is otherwise left to the garbage collector while the
// writer allocates. Steady-state recording therefore allocates nothing,
// bounded or after Reset (pinned by an AllocsPerRun gate).
type Ring struct {
	rec *Recorder
	// max is the chunk budget (0 = unbounded).
	max uint64

	// Writer-owned: the chunk being filled and the recycled ones.
	tail, free *chunk

	// Published. pos is the number of events recorded (the position of
	// the next one) and lo the position of the oldest retained; chunk k
	// (positions from k*chunkEvents) is in slot k mod len of dir. readers
	// counts the readers inside the ring.
	pos, lo atomic.Uint64
	dir     atomic.Pointer[[]atomic.Pointer[chunk]]
	readers atomic.Int32

	// pad keeps two adjacent Rings out of one cache line: each worker
	// stores its own pos on every Record, and cross-line sharing would
	// put that store on the neighbor's hot path.
	_ [64]byte
}

// Record appends one event stamped with the next global sequence number.
func (g *Ring) Record(k Kind, at int64, proc, job, phase int32, lo, hi uint32, arg int64) {
	n := g.pos.Load()
	c := g.tail
	if n%chunkEvents == 0 {
		c = g.grow(n)
	}
	c.ev[n%chunkEvents] = Event{
		Seq: g.rec.seq.Add(1), Time: at, Kind: k,
		Proc: proc, Job: job, Phase: phase, Lo: lo, Hi: hi, Arg: arg,
	}
	g.pos.Store(n + 1)
}

// grow publishes a new tail chunk for position n, a chunk boundary.
func (g *Ring) grow(n uint64) *chunk {
	k := n / chunkEvents
	d := g.dir.Load()
	if d == nil || (g.max == 0 && k == uint64(len(*d))) {
		size := g.max
		if size == 0 {
			size = max(2*k, 8)
		}
		grown := make([]atomic.Pointer[chunk], size)
		for i := uint64(0); i < k; i++ {
			grown[i].Store((*d)[i].Load())
		}
		d = &grown
		g.dir.Store(d)
	}
	slot := &(*d)[k%uint64(len(*d))]
	if old := slot.Load(); old != nil {
		// Bounded, and the budget is spent: retire the oldest chunk.
		slot.Store(nil)
		g.lo.Store(old.base + chunkEvents)
		if g.readers.Load() == 0 {
			old.next, g.free = g.free, old
		}
	}
	c := g.free
	if c != nil {
		g.free, c.next = c.next, nil
	} else {
		c = new(chunk)
	}
	c.base = n
	slot.Store(c)
	g.tail = c
	return c
}

// read calls visit with each run of events in [from, to), clamped to
// what has been published, in order. It reports false when it met
// events no longer retained; what it visited until then is of no use.
func (g *Ring) read(from, to uint64, visit func([]Event)) bool {
	// Announce before loading a slot: see Ring for the protocol.
	g.readers.Add(1)
	defer g.readers.Add(-1)
	to = min(to, g.pos.Load())
	if from >= to {
		return true
	}
	d := *g.dir.Load()
	for from < to {
		k := from / chunkEvents
		c := d[k%uint64(len(d))].Load()
		if c == nil || c.base != k*chunkEvents {
			return false
		}
		run := c.ev[from-c.base : min(to-c.base, chunkEvents)]
		visit(run)
		from += uint64(len(run))
	}
	return true
}

// Len reports the number of events the ring retains.
func (g *Ring) Len() int {
	lo := g.lo.Load() // before pos, which only grows past it
	return int(g.pos.Load() - lo)
}

// Reset drops the recorded events but keeps the chunks, so a reused ring
// records without allocating. Owner-only, and not while a reader may be
// inside the ring; positions restart at zero, so cursors read before the
// Reset are void.
func (g *Ring) Reset() {
	if d := g.dir.Load(); d != nil {
		for i := range *d {
			if c := (*d)[i].Load(); c != nil {
				(*d)[i].Store(nil)
				c.next, g.free = g.free, c
			}
		}
	}
	g.tail = nil
	g.lo.Store(0)
	g.pos.Store(0)
}

// Cursor is a point in a recorder's streams: how many events each worker
// ring, and last the Emit channel, had published when Recorder.Cursor
// read them. Two cursors bracket an extent for TakeJob.
type Cursor []uint64

// ErrRecycled reports that part of the extent a TakeJob was asked for
// has been recycled by a bounded recorder.
var ErrRecycled = errors.New("trace: events recycled past the recorder's retention")

// Recorder owns the per-worker rings and the global sequence counter for
// one recorded run, or for a long-lived pool's whole life. Create one
// with NewRecorder (NewBounded for the long-lived kind), hand Ring(w) to
// each worker, and read it with Take or TakeJob — at any time: readers
// take no lock a recording worker takes.
type Recorder struct {
	meta  Meta
	start clock.Stamp
	seq   atomic.Uint64
	// rings holds the worker rings and, last, the Emit channel's.
	rings []Ring
	// visited counts the events Take and TakeJob have examined.
	visited atomic.Uint64

	// mu serializes Emit's writers and guards meta.Jobs.
	mu sync.Mutex
}

// NewRecorder builds a recorder with workers rings (minimum 1) that
// keeps every event.
func NewRecorder(meta Meta, workers int) *Recorder {
	return NewBounded(meta, workers, 0)
}

// NewBounded is NewRecorder with retention: each ring keeps at least its
// latest retain events (rounded up to whole chunks) and recycles older
// ones, so memory is flat however long the recorder lives. retain <= 0
// keeps everything.
func NewBounded(meta Meta, workers, retain int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	r := &Recorder{meta: meta, start: clock.Now()}
	r.rings = make([]Ring, workers+1)
	for i := range r.rings {
		r.rings[i].rec = r
		if retain > 0 {
			// Sealed chunks covering retain, plus the one being filled.
			r.rings[i].max = uint64(retain+chunkEvents-1)/chunkEvents + 1
		}
	}
	return r
}

// Ring returns worker w's private ring (clamped into range, so callers
// with synthetic worker numbers never fault).
func (r *Recorder) Ring(w int) *Ring {
	if w < 0 || w >= len(r.rings)-1 {
		w = 0
	}
	return &r.rings[w]
}

// Now is the wall-clock timestamp source for real-machine recording:
// nanoseconds since the recorder was created (monotonic).
func (r *Recorder) Now() int64 { return r.At(clock.Now()) }

// At converts a clock reading the caller already holds into the
// recorder's time base, so a worker that stamps task boundaries anyway
// records them without reading the clock again.
func (r *Recorder) At(s clock.Stamp) int64 { return int64(s - r.start) }

// Emit records one event from a context that has no ring of its own — a
// controller retune under the manager lock, an abort from an arbitrary
// goroutine. It takes the recorder's mutex (the Emit channel is a ring
// whose writers take turns), so keep it off hot paths; rare events only.
func (r *Recorder) Emit(k Kind, at int64, proc, job, phase int32, lo, hi uint32, arg int64) {
	r.mu.Lock()
	r.rings[len(r.rings)-1].Record(k, at, proc, job, phase, lo, hi, arg)
	r.mu.Unlock()
}

// Meta returns the recorder's run description for amendment while the
// recorder is being set up (backend, manager, phase names). Not safe
// once anything reads the recorder; job names, which a live pool keeps
// adding, go through AddJob.
func (r *Recorder) Meta() *Meta { return &r.meta }

// AddJob appends a job name to Meta.Jobs — the name of the job whose
// records carry the next Job index. Safe while readers take traces.
func (r *Recorder) AddJob(name string) {
	r.mu.Lock()
	r.meta.Jobs = append(r.meta.Jobs, name)
	r.mu.Unlock()
}

// Cursor reads the recorder's current position: one atomic load per
// ring.
func (r *Recorder) Cursor() Cursor {
	c := make(Cursor, len(r.rings))
	for i := range r.rings {
		c[i] = r.rings[i].pos.Load()
	}
	return c
}

// Visited reports how many events Take and TakeJob have examined over
// the recorder's life — the read side's cost in the unit that does not
// depend on the host (tests and BenchmarkTraceDownload gate on it).
func (r *Recorder) Visited() uint64 { return r.visited.Load() }

// byTimeSeq is the trace order. Seq is unique, so the order is total.
func byTimeSeq(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// inOrder puts ev — the rings' events back to back, ring i's ending at
// ends[i] — in trace order. A ring is usually in that order already (its
// writer records in time order), and then the non-empty rings merge
// through a heap on their heads, O(N log R) for N events in R busy rings,
// into a second slice of N events; a ring out of order sends the whole to
// a sort in place.
func inOrder(ev []Event, ends []int) []Event {
	runs := make([]span, 0, len(ends)) // the busy rings' unmerged events, a heap on their heads
	lo := 0
	for _, end := range ends {
		if !slices.IsSortedFunc(ev[lo:end], byTimeSeq) {
			slices.SortFunc(ev, byTimeSeq)
			return ev
		}
		if end > lo {
			runs = append(runs, span{lo, end})
		}
		lo = end
	}
	if len(runs) <= 1 {
		return ev
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftDown(ev, runs, i)
	}
	out := make([]Event, 0, len(ev))
	for len(runs) > 0 {
		top := &runs[0]
		out = append(out, ev[top.lo])
		if top.lo++; top.lo == top.hi {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftDown(ev, runs, 0)
	}
	return out
}

// span is the events ev[lo:hi] of one ring that inOrder has yet to merge.
type span struct{ lo, hi int }

// siftDown restores the heap order of runs, by each one's head event,
// below runs[i].
func siftDown(ev []Event, runs []span, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(runs) && before(&ev[runs[c].lo], &ev[runs[least].lo]) {
				least = c
			}
		}
		if least == i {
			return
		}
		runs[i], runs[least] = runs[least], runs[i]
		i = least
	}
}

// before reports whether a comes before b in trace order (byTimeSeq,
// without copying the events).
func before(a, b *Event) bool {
	return a.Time < b.Time || a.Time == b.Time && a.Seq < b.Seq
}

// Take merges every ring and the Emit channel into one Trace ordered by
// (Time, Seq) — everything recorded so far, or everything a bounded
// recorder still retains. It does not consume the rings, so a second
// Take returns a superset of the first. Safe while recording continues:
// a live Take is a consistent prefix of every ring, though events racing
// the call may land on either side of the snapshot.
func (r *Recorder) Take() *Trace {
	n := 0
	for i := range r.rings {
		n += r.rings[i].Len()
	}
	ev := make([]Event, 0, n)
	ends := make([]int, len(r.rings))
	for i := range r.rings {
		g := &r.rings[i]
		mark := len(ev)
		for !g.read(g.lo.Load(), math.MaxUint64, func(run []Event) { ev = append(ev, run...) }) {
			// A chunk was retired under the read: go again from the new
			// oldest event.
			ev = ev[:mark]
		}
		ends[i] = len(ev)
	}
	r.visited.Add(uint64(len(ev)))
	ev = inOrder(ev, ends)
	r.mu.Lock()
	meta := r.meta
	meta.Jobs = slices.Clone(meta.Jobs)
	r.mu.Unlock()
	return &Trace{Meta: meta, Events: ev}
}

// TakeJob extracts one job's schedule from the extent [from, to) — the
// cursors the recording pool read when the job started (or last retried)
// and when it retired; a nil to means "up to now". The result is what
// Take().FilterJob(job) returns for a job whose records all lie inside
// the extent, at the cost of visiting the extent's events only: a pool
// that has run for a week serves a one-second job's trace by reading one
// second of events. It returns ErrRecycled when a bounded recorder no
// longer retains the whole extent.
func (r *Recorder) TakeJob(job int, from, to Cursor) (*Trace, error) {
	var ev []Event
	var visited uint64
	ends := make([]int, len(r.rings))
	for i := range r.rings {
		end := uint64(math.MaxUint64)
		if to != nil {
			end = to[i]
		}
		ok := r.rings[i].read(from[i], end, func(run []Event) {
			visited += uint64(len(run))
			for j := range run {
				if int(run[j].Job) == job {
					ev = append(ev, run[j])
				}
			}
		})
		if !ok {
			return nil, ErrRecycled
		}
		ends[i] = len(ev)
	}
	r.visited.Add(visited)
	ev = inOrder(ev, ends)
	cut := -1
	for i := len(ev) - 1; i >= 0; i-- {
		if ev[i].Kind == KRetry {
			cut = i
			break
		}
	}
	r.mu.Lock()
	meta := r.meta.forJob(job)
	r.mu.Unlock()
	return &Trace{Meta: meta, Events: appendSchedule(ev[:0], ev[cut+1:], job)}, nil
}

// Trace is a completed recording: the run description plus its events in
// (Time, Seq) order.
type Trace struct {
	Meta   Meta
	Events []Event
}

// Len reports the event count.
func (t *Trace) Len() int { return len(t.Events) }

// Granules sums the granules completed in the trace.
func (t *Trace) Granules() int64 {
	var n int64
	for _, e := range t.Events {
		if e.Kind == KComplete {
			n += int64(e.Hi - e.Lo)
		}
	}
	return n
}

// Count tallies events of kind k.
func (t *Trace) Count(k Kind) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Span reports the closed busy window [first dispatch, last completion].
// Both are 0 for a trace with no dispatches.
func (t *Trace) Span() (start, end int64) {
	first := true
	for _, e := range t.Events {
		switch e.Kind {
		case KDispatch:
			if first || e.Time < start {
				start = e.Time
			}
			first = false
		case KComplete:
			if e.Time > end {
				end = e.Time
			}
		}
	}
	return start, end
}

// FilterJob extracts one job's schedule from a multi-job trace as a
// single-job trace replayable with sim.Replay: only the job's dispatch,
// completion, backfill, steal, fault and lifecycle events survive, and
// Meta.Jobs shrinks to the one name. Events before the job's LAST KRetry
// are dropped — a retried job re-runs from a fresh scheduler, so only the
// final attempt is a complete, conserved schedule. Machine-wide events
// (parks, marks, the run's own start/finish) are dropped; Meta.Phases is
// kept only for job 0, whose program it describes.
func (t *Trace) FilterJob(job int) *Trace {
	cut, n := -1, 0
	for i := range t.Events {
		if e := &t.Events[i]; int(e.Job) == job {
			if e.Kind == KRetry {
				cut, n = i, 0
			} else if e.Kind.inSchedule() {
				n++
			}
		}
	}
	return &Trace{
		Meta:   t.Meta.forJob(job),
		Events: appendSchedule(make([]Event, 0, n), t.Events[cut+1:], job),
	}
}

// forJob narrows a multi-job run's description to job's single-job
// trace: the one name, and the phase table only for job 0, whose program
// it describes.
func (m Meta) forJob(job int) Meta {
	jobs := m.Jobs
	m.Jobs = nil
	if job >= 0 && job < len(jobs) {
		m.Jobs = []string{jobs[job]}
	}
	if job != 0 {
		m.Phases = nil
	}
	return m
}

// inSchedule reports whether FilterJob keeps events of kind k: the ones
// a single-job replay consumes.
func (k Kind) inSchedule() bool {
	switch k {
	case KDispatch, KComplete, KBackfill, KStealWin,
		KStart, KFinish, KAbort, KFault:
		return true
	}
	return false
}

// appendSchedule appends job's schedule events in src to dst, re-indexed
// to job 0. dst may be src[:0]: the write index never passes the read
// index.
func appendSchedule(dst, src []Event, job int) []Event {
	for _, e := range src {
		if int(e.Job) == job && e.Kind.inSchedule() {
			e.Job = 0
			dst = append(dst, e)
		}
	}
	return dst
}

// Procs reports the processor count: Meta.Workers when set, otherwise
// the highest Proc seen plus one.
func (t *Trace) Procs() int {
	if t.Meta.Workers > 0 {
		return t.Meta.Workers
	}
	maxP := -1
	for _, e := range t.Events {
		if int(e.Proc) > maxP {
			maxP = int(e.Proc)
		}
	}
	return maxP + 1
}
