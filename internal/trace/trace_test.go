package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	rec := NewRecorder(Meta{
		Backend: "virtual", Model: "sharded", Workers: 2, TimeUnit: UnitVirtual,
		Phases: []PhaseMeta{{Name: "p0", Granules: 4}, {Name: "p1", Granules: 4}},
	}, 2)
	r := rec.Ring(0)
	r.Record(KStart, 0, -1, 0, -1, 0, 0, 10)
	r.Record(KDispatch, 10, 0, 0, 0, 0, 2, 200)
	r.Record(KDispatch, 10, 1, 0, 0, 2, 4, 200)
	r.Record(KComplete, 210, 0, 0, 0, 0, 2, 200)
	r.Record(KDispatch, 210, 0, 0, 1, 0, 4, 300)
	r.Record(KComplete, 210, 1, 0, 0, 2, 4, 200)
	r.Record(KPark, 215, 1, 0, -1, 0, 0, 0)
	rec.Emit(KRetune, 400, -1, -1, -1, 0, 0, 32)
	r.Record(KComplete, 510, 0, 0, 1, 0, 4, 300)
	r.Record(KFinish, 510, -1, 0, -1, 0, 0, 0)
	return rec.Take()
}

func TestTakeOrdersByTimeSeq(t *testing.T) {
	tr := sampleTrace()
	for i := 1; i < len(tr.Events); i++ {
		a, b := tr.Events[i-1], tr.Events[i]
		if a.Time > b.Time || (a.Time == b.Time && a.Seq >= b.Seq) {
			t.Fatalf("events %d,%d out of (Time, Seq) order: %v then %v", i-1, i, a, b)
		}
	}
	if got := tr.Granules(); got != 8 {
		t.Fatalf("Granules = %d, want 8", got)
	}
	if start, end := tr.Span(); start != 10 || end != 510 {
		t.Fatalf("Span = [%d, %d], want [10, 510]", start, end)
	}
}

// Concurrent rings must interleave into a strictly increasing Seq order
// with no events lost.
func TestConcurrentRings(t *testing.T) {
	const workers, per = 8, 1000
	rec := NewRecorder(Meta{Backend: "exec", Workers: workers, TimeUnit: UnitNanos}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := rec.Ring(w)
			for i := 0; i < per; i++ {
				g.Record(KDispatch, rec.Now(), int32(w), 0, 0, uint32(i), uint32(i+1), 0)
			}
		}(w)
	}
	wg.Wait()
	tr := rec.Take()
	if tr.Len() != workers*per {
		t.Fatalf("lost events: %d recorded, want %d", tr.Len(), workers*per)
	}
	seen := map[uint64]bool{}
	for _, e := range tr.Events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Meta.Backend != tr.Meta.Backend || got.Meta.Model != tr.Meta.Model ||
		got.Meta.Workers != tr.Meta.Workers || got.Meta.TimeUnit != tr.Meta.TimeUnit ||
		len(got.Meta.Phases) != len(tr.Meta.Phases) {
		t.Fatalf("meta mangled: %+v vs %+v", got.Meta, tr.Meta)
	}
	if got.Meta.Version != FormatVersion {
		t.Fatalf("read version %d, want %d", got.Meta.Version, FormatVersion)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d, want %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mangled: %v vs %v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b := buf.Bytes()

	flipped := append([]byte(nil), b...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Fatal("Read accepted a corrupted payload")
	}
	truncated := b[:len(b)-10]
	if _, err := Read(bytes.NewReader(truncated)); err == nil {
		t.Fatal("Read accepted a truncated file")
	}
	badVersion := append([]byte(nil), b...)
	badVersion[4] = 99
	if _, err := Read(bytes.NewReader(badVersion)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("Read accepted unknown version: %v", err)
	}
	if _, err := Read(strings.NewReader("not a trace at all, definitely")); err == nil {
		t.Fatal("Read accepted garbage")
	}
}

func TestDiff(t *testing.T) {
	a, b := sampleTrace(), sampleTrace()
	if d := Diff(a, b); !d.Identical || d.DivergeAt != -1 || !d.Exact {
		t.Fatalf("identical traces reported divergent: %+v", d)
	}

	b.Events[3].Proc = 1 // completion moves to the other worker
	d := Diff(a, b)
	if d.Identical || d.DivergeAt != 3 || d.Reason == "" {
		t.Fatalf("moved completion not caught: %+v", d)
	}

	c := sampleTrace()
	c.Events = c.Events[:len(c.Events)-1]
	d = Diff(a, c)
	if d.Identical || d.DivergeAt != len(c.Events) || d.B != nil || d.A == nil {
		t.Fatalf("prefix trace not caught: %+v", d)
	}

	// Wall-clock traces compare structurally: perturbing a timestamp is
	// not a divergence, moving an event between procs is.
	wa, wb := sampleTrace(), sampleTrace()
	wa.Meta.TimeUnit, wb.Meta.TimeUnit = UnitNanos, UnitNanos
	wb.Events[1].Time += 12345
	wb.Events[1].Arg += 9
	if d := Diff(wa, wb); !d.Identical || d.Exact {
		t.Fatalf("structural comparison flagged timing jitter: %+v", d)
	}

	if deltas := Diff(a, a).Phases; len(deltas) != 2 ||
		deltas[0].BusyA != 400 || deltas[1].BusyA != 300 {
		t.Fatalf("phase deltas wrong: %+v", deltas)
	}
}

func TestTimelineExport(t *testing.T) {
	tr := sampleTrace()
	tl := tr.Timeline(2, 0)
	if got := tl.BusyTotal(); got != 700 {
		t.Fatalf("timeline busy total = %d, want 700 (sum of dispatched costs)", got)
	}
	if by := busyByProc(tr, 2); by[0] != 500 || by[1] != 200 {
		t.Fatalf("per-proc busy = %v, want [500 200]", by)
	}
	if g := tr.Gantt(2, 100); !strings.HasPrefix(g, "time: 1 col = 6 units, horizon = 510\n") {
		t.Fatalf("gantt header wrong:\n%s", g)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"kind": "dispatch"`, `"kind": "retune"`, `"spans"`, `"time_unit": "virtual"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON export missing %s:\n%s", want, buf.String())
		}
	}
}

// The recording hot path must be zero-alloc in steady state — inside a
// chunk, across chunk boundaries of a ring reused after Reset, and on a
// bounded ring recycling its oldest chunk at every boundary. This is the
// CI gate ISSUE 7 names. The boundary cases count a whole multi-chunk
// burst as one run: AllocsPerRun rounds down, and one allocation per
// thousand records must not round to zero.
func TestRingRecordZeroAlloc(t *testing.T) {
	rec := NewRecorder(Meta{Backend: "exec", Workers: 1, TimeUnit: UnitNanos}, 1)
	g := rec.Ring(0)
	for i := 0; i < 1<<14; i++ {
		g.Record(KDispatch, int64(i), 0, 0, 0, 0, 1, 0)
	}
	g.Reset() // keeps the chunks: steady state begins here
	var i int64
	allocs := testing.AllocsPerRun(chunkEvents/2, func() {
		g.Record(KComplete, i, 0, 0, 0, 0, 1, 100)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f allocs/op in steady state, want 0", allocs)
	}

	burst := func(g *Ring) func() {
		return func() {
			for i := 0; i < 3*chunkEvents; i++ {
				g.Record(KComplete, int64(i), 0, 0, 0, 0, 1, 100)
			}
		}
	}
	g.Reset()
	if allocs := testing.AllocsPerRun(1, burst(g)); allocs != 0 {
		t.Fatalf("a reset ring allocated %.0f times over %d chunk boundaries, want 0", allocs, 3)
	}
	if g.Len() == 0 {
		t.Fatal("ring empty after the burst")
	}

	bounded := NewBounded(Meta{}, 1, 2*chunkEvents).Ring(0)
	burst(bounded)() // fill the budget
	if allocs := testing.AllocsPerRun(4, burst(bounded)); allocs != 0 {
		t.Fatalf("a bounded ring past its budget allocated %.0f times per %d records, want 0", allocs, 3*chunkEvents)
	}
}

// jobCorpus records a multi-job interleaving across rings: three jobs'
// dispatches and completions on every ring, lifecycle events through
// Emit, machine-wide parks, and two retries of job 1 whose stale
// completions straddle the retry records.
func jobCorpus(rec *Recorder, rings, rounds int) {
	at := int64(0)
	for j := 0; j < 3; j++ {
		rec.AddJob([]string{"a", "b", "c"}[j])
		rec.Emit(KStart, at, -1, int32(j), -1, 0, 0, 0)
	}
	for i := 0; i < rounds; i++ {
		for w := 0; w < rings; w++ {
			g, job := rec.Ring(w), int32((i+w)%3)
			at++
			g.Record(KDispatch, at, int32(w), job, 0, uint32(i), uint32(i+1), 0)
			if (i+w)%7 == 0 {
				g.Record(KBackfill, at, int32(w), job, 0, uint32(i), uint32(i+1), 0)
			}
			// Completions carry an older reading than the records around
			// them now and then, as a preempted worker's do.
			g.Record(KComplete, at-int64(i%3), int32(w), job, 0, uint32(i), uint32(i+1), 5)
			if i%50 == 0 {
				g.Record(KPark, at, int32(w), -1, -1, 0, 0, 0)
			}
		}
		if i == rounds/3 || i == rounds/2 {
			rec.Emit(KRetry, at, -1, 1, -1, 0, 0, 2)
			rec.Emit(KStart, at, -1, 1, -1, 0, 0, 0)
		}
	}
	for j := 0; j < 3; j++ {
		k := KFinish
		if j == 2 {
			k = KAbort
		}
		rec.Emit(k, at+1, -1, int32(j), -1, 0, 0, 0)
	}
}

func checkSameTrace(t *testing.T, what string, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Fatalf("%s: meta %+v, want %+v", what, got.Meta, want.Meta)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: %d events, want %d", what, len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d is %v, want %v", what, i, got.Events[i], want.Events[i])
		}
	}
}

// TakeJob over the whole recorder is Take().FilterJob, retry cut
// included, for every job.
func TestTakeJobMatchesFilterJob(t *testing.T) {
	const rings = 3
	rec := NewRecorder(Meta{Backend: "pool", Workers: rings, TimeUnit: UnitNanos,
		Phases: []PhaseMeta{{Name: "p0", Granules: 9}}}, rings)
	from := rec.Cursor()
	jobCorpus(rec, rings, 2*chunkEvents)
	all := rec.Take()
	for job := 0; job < 4; job++ {
		got, err := rec.TakeJob(job, from, nil)
		if err != nil {
			t.Fatalf("TakeJob(%d): %v", job, err)
		}
		checkSameTrace(t, fmt.Sprintf("job %d", job), got, all.FilterJob(job))
		if job < 3 && len(got.Events) == 0 {
			t.Fatalf("job %d: empty schedule", job)
		}
	}
}

// A per-job take costs the job's extent, not the recorder's history: a
// million foreign events before the extent and more after it are never
// visited.
func TestTakeJobVisitsOnlyTheExtent(t *testing.T) {
	const rings = 4
	rec := NewRecorder(Meta{Backend: "pool", Workers: rings, TimeUnit: UnitNanos}, rings)
	foreign := func(n int) {
		for i := 0; i < n; i++ {
			rec.Ring(i%rings).Record(KComplete, int64(i), int32(i%rings), 99, 0, 0, 1, 1)
		}
	}
	foreign(1 << 20)
	from := rec.Cursor()
	jobCorpus(rec, rings, 500)
	to := rec.Cursor()
	foreign(1 << 16)

	extent := uint64(0)
	for i := range from {
		extent += to[i] - from[i]
	}
	before := rec.Visited()
	got, err := rec.TakeJob(1, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if visited := rec.Visited() - before; visited > extent {
		t.Fatalf("TakeJob visited %d events, the extent holds %d", visited, extent)
	}
	checkSameTrace(t, "job 1", got, rec.Take().FilterJob(1))
}

// A reader in the middle of copying a ring must not delay the ring's
// writer: Record completes while the reader is parked inside read.
func TestRecordDoesNotWaitForReader(t *testing.T) {
	rec := NewRecorder(Meta{}, 1)
	g := rec.Ring(0)
	for i := 0; i < 2*chunkEvents; i++ {
		g.Record(KDispatch, int64(i), 0, 0, 0, 0, 1, 0)
	}
	inside, release := make(chan struct{}), make(chan struct{})
	readDone := make(chan bool)
	go func() {
		first := true
		readDone <- g.read(0, math.MaxUint64, func([]Event) {
			if first {
				first = false
				close(inside)
				<-release
			}
		})
	}()
	<-inside
	recorded := make(chan struct{})
	go func() {
		// Across a chunk boundary too, so the writer links a chunk while
		// the reader holds one.
		for i := 0; i < 2*chunkEvents; i++ {
			g.Record(KComplete, int64(i), 0, 0, 0, 0, 1, 0)
		}
		close(recorded)
	}()
	select {
	case <-recorded:
	case <-time.After(10 * time.Second):
		t.Fatal("Record blocked behind a reader mid-copy")
	}
	close(release)
	if !<-readDone {
		t.Fatal("read of an unbounded ring reported recycled events")
	}
}

// A bounded recorder's memory is flat: rings stay within their chunk
// budget however much is recorded, an extent that slid out of retention
// reports ErrRecycled, and a recent one still reads — all while readers
// hammer the rings being recycled (the -race run checks that no reader
// ever touches a chunk the writer reuses).
func TestBoundedRecorderRecyclesUnderReaders(t *testing.T) {
	const rings, retain = 2, 2 * chunkEvents
	rec := NewBounded(Meta{Backend: "pool", Workers: rings, TimeUnit: UnitNanos}, rings, retain)
	old := rec.Cursor()
	jobCorpus(rec, rings, 100)
	oldEnd := rec.Cursor()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr := rec.Take()
				for i := 1; i < len(tr.Events); i++ {
					if byTimeSeq(tr.Events[i-1], tr.Events[i]) >= 0 {
						t.Errorf("live Take out of order at %d: %v then %v", i, tr.Events[i-1], tr.Events[i])
						return
					}
				}
				if _, err := rec.TakeJob(1, old, oldEnd); err != nil && !errors.Is(err, ErrRecycled) {
					t.Errorf("TakeJob: %v", err)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < rings; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			g := rec.Ring(w)
			for i := 0; i < 40*chunkEvents; i++ {
				g.Record(KComplete, rec.Now(), int32(w), 99, 0, 0, 1, 1)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for w := 0; w < rings; w++ {
		g := rec.Ring(w)
		if n := g.Len(); n < retain || n > retain+chunkEvents {
			t.Fatalf("ring %d retains %d events, want %d and at most a chunk more", w, n, retain)
		}
	}
	if _, err := rec.TakeJob(1, old, oldEnd); !errors.Is(err, ErrRecycled) {
		t.Fatalf("TakeJob of a recycled extent: err = %v, want ErrRecycled", err)
	}
	from := rec.Cursor()
	rec.Ring(0).Record(KDispatch, rec.Now(), 0, 1, 0, 0, 1, 0)
	got, err := rec.TakeJob(1, from, nil)
	if err != nil || len(got.Events) != 1 {
		t.Fatalf("TakeJob of a fresh extent: %d events, err %v", len(got.Events), err)
	}
}

// Take merges rings that are each in trace order by a scan over their
// heads, and sorts when one is not; either way it returns what sorting
// every event does, and TakeJob what filtering that does.
func TestTakeMergeEqualsSort(t *testing.T) {
	const rings = 4
	ordered := func(rec *Recorder) {
		var wg sync.WaitGroup
		for w := 0; w < rings; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := rec.Ring(w)
				for i := 0; i < 3*chunkEvents/2; i++ {
					g.Record(KDispatch, rec.Now(), int32(w), int32(i%3), 0, uint32(i), uint32(i+1), 0)
				}
			}(w)
		}
		wg.Wait()
		rec.Emit(KFinish, rec.Now(), -1, 0, -1, 0, 0, 0)
	}
	for _, c := range []struct {
		name   string
		fill   func(*Recorder)
		merged bool
	}{
		{"rings in order", ordered, true},
		{"a ring out of order", func(rec *Recorder) { jobCorpus(rec, rings, chunkEvents) }, false},
	} {
		rec := NewRecorder(Meta{Backend: "pool", Workers: rings, TimeUnit: UnitNanos}, rings)
		from := rec.Cursor()
		c.fill(rec)
		if busy, sorted := rec.RingsInOrder(); sorted != c.merged || busy < 2 {
			t.Fatalf("%s: %d rings with events, all in order: %v", c.name, busy, sorted)
		}
		want := rec.SortedTake()
		checkSameTrace(t, c.name, rec.Take(), want)
		for job := 0; job < 3; job++ {
			got, err := rec.TakeJob(job, from, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkSameTrace(t, fmt.Sprintf("%s, job %d", c.name, job), got, want.FilterJob(job))
		}
	}
}

// BenchmarkTake prices Take's merge of in-order rings against sorting the
// same events whole, on a recorder of workers+1 rings (the last one idle,
// as a pool's emit ring mostly is) whose 1<<17 events interleave in time
// across the workers the way a pool's dispatches do.
func BenchmarkTake(b *testing.B) {
	const events = 1 << 17
	for _, workers := range []int{8, 32, 64} {
		rec := NewRecorder(Meta{Backend: "pool", Workers: workers, TimeUnit: UnitNanos}, workers)
		for i := 0; i < events; i++ {
			rec.Ring(i%workers).Record(KDispatch, int64(i), int32(i%workers), 0, 0, uint32(i), uint32(i+1), 0)
		}
		b.Run(fmt.Sprintf("workers=%d/merge", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Take()
			}
		})
		b.Run(fmt.Sprintf("workers=%d/sort", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := make([]Event, 0, events)
				for r := range rec.rings {
					g := &rec.rings[r]
					g.read(g.lo.Load(), math.MaxUint64, func(run []Event) { ev = append(ev, run...) })
				}
				slices.SortFunc(ev, byTimeSeq)
			}
		})
	}
}
