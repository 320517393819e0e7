package trace

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// busyByProc sums tr's busy intervals per processor.
func busyByProc(tr *Trace, procs int) []int64 {
	by := make([]int64, procs)
	tr.EachBusy(func(iv Interval) { by[iv.Proc] += iv.T1 - iv.T0 })
	return by
}

// virtualTrace builds a virtual trace from (proc, phase, start, cost)
// dispatches, ending with a KFinish at end.
func virtualTrace(end int64, ds ...[4]int64) *Trace {
	tr := &Trace{Meta: Meta{TimeUnit: UnitVirtual}}
	for _, d := range ds {
		tr.Events = append(tr.Events, Event{Kind: KDispatch, Proc: int32(d[0]), Phase: int32(d[1]), Time: d[2], Arg: d[3]})
	}
	tr.Events = append(tr.Events, Event{Kind: KFinish, Time: end, Proc: -1})
	return tr
}

func TestTimelineBasics(t *testing.T) {
	tl := virtualTrace(10, [4]int64{0, 0, 0, 10}, [4]int64{1, 0, 0, 5}).Timeline(2, 10)
	if tl.BusyTotal() != 15 {
		t.Fatalf("busy=%d", tl.BusyTotal())
	}
	if got := tl.Utilization(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("utilization = %v, want 0.75", got)
	}
	if tl.BucketWidth() != 10 || tl.End() != 10 {
		t.Error("accessors wrong")
	}
}

// The two time bases derive busy time from different records: a virtual
// trace from the dispatch, which also covers a task whose completion
// never surfaced (its attempt died), a wall-clock trace from the
// completion.
func TestBusyDerivationPerTimeBase(t *testing.T) {
	events := []Event{
		{Kind: KDispatch, Proc: 0, Time: 0, Arg: 4},
		{Kind: KComplete, Proc: 0, Time: 4, Arg: 4},
		{Kind: KDispatch, Proc: 1, Time: 2, Arg: 6},  // never completes
		{Kind: KComplete, Proc: -1, Time: 5, Arg: 9}, // no processor: skipped
	}
	virtual := &Trace{Meta: Meta{TimeUnit: UnitVirtual}, Events: events}
	if by := busyByProc(virtual, 2); by[0] != 4 || by[1] != 6 {
		t.Errorf("virtual busy by proc = %v, want [4 6]", by)
	}
	wall := &Trace{Meta: Meta{TimeUnit: UnitNanos}, Events: events}
	if by := busyByProc(wall, 2); by[0] != 4 || by[1] != 0 {
		t.Errorf("wall-clock busy by proc = %v, want [4 0]", by)
	}
	// No KFinish: the horizon is the last busy instant.
	if end := virtual.Timeline(2, 1).End(); end != 8 {
		t.Errorf("virtual horizon = %d, want 8", end)
	}
	if end := wall.Timeline(2, 1).End(); end != 4 {
		t.Errorf("wall-clock horizon = %d, want 4", end)
	}
}

func TestTimelineBucketSpanning(t *testing.T) {
	tl := virtualTrace(11, [4]int64{0, 0, 2, 9}).Timeline(1, 4) // buckets 0 (2 units), 1 (4), 2 (3)
	curve := tl.Curve()
	want := []float64{0.5, 1.0, 1.0} // last bucket partial width 3: 3/3
	if len(curve) != 3 {
		t.Fatalf("curve = %v", curve)
	}
	for i := range want {
		if math.Abs(curve[i]-want[i]) > 1e-9 {
			t.Errorf("curve[%d] = %v, want %v", i, curve[i], want[i])
		}
	}
}

func TestTimelineDegenerate(t *testing.T) {
	tl := virtualTrace(3, [4]int64{0, 0, 0, 3}).Timeline(0, 0) // clamped to 1 proc, width 1
	if tl.BucketWidth() != 1 || tl.Utilization() != 1 {
		t.Errorf("clamping failed: width %d, utilization %v", tl.BucketWidth(), tl.Utilization())
	}
	if c := (&Trace{}).Timeline(1, 1).Curve(); c != nil {
		t.Error("empty curve not nil")
	}
	if tl := virtualTrace(5, [4]int64{0, 0, 5, 0}).Timeline(1, 1); tl.BusyTotal() != 0 {
		t.Error("empty interval counted")
	}
}

func TestGantt(t *testing.T) {
	tr := virtualTrace(20,
		[4]int64{0, 0, 0, 10}, [4]int64{0, 1, 10, 10},
		[4]int64{1, 0, 0, 5}, [4]int64{1, 1, 12, 8},
		[4]int64{-1, 23, 0, 5}, // no processor: ignored
		[4]int64{0, 23, 5, 0},  // empty: ignored
	)
	out := tr.Gantt(2, 20)
	if !strings.HasPrefix(out, "time: 1 col = 1 units, horizon = 20\n") {
		t.Errorf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") || !strings.Contains(out, ".") || strings.Contains(out, "X") {
		t.Errorf("render missing labels/idle:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("render lines = %d", len(lines))
	}
	if (&Trace{}).Gantt(2, 10) != "" {
		t.Error("empty gantt should render empty")
	}
}

func TestGanttScaling(t *testing.T) {
	out := virtualTrace(1000, [4]int64{0, 0, 0, 1000}).Gantt(1, 10)
	if out == "" || strings.Count(out, "A") > 12 {
		t.Errorf("scaled render wrong:\n%s", out)
	}
}

// SortedTake is Take's referee: the rings' events gathered and sorted
// whole, with Take's description. The recorder must be quiescent.
func (r *Recorder) SortedTake() *Trace {
	tr := r.Take()
	var ev []Event
	for i := range r.rings {
		g := &r.rings[i]
		g.read(g.lo.Load(), math.MaxUint64, func(run []Event) { ev = append(ev, run...) })
	}
	slices.SortFunc(ev, byTimeSeq)
	tr.Events = ev
	return tr
}

// RingsInOrder reports how many of the recorder's rings hold events, and
// whether each of those is in trace order — whether Take merges them or
// sorts.
func (r *Recorder) RingsInOrder() (busy int, sorted bool) {
	sorted = true
	for i := range r.rings {
		g := &r.rings[i]
		var ev []Event
		g.read(g.lo.Load(), math.MaxUint64, func(run []Event) { ev = append(ev, run...) })
		if len(ev) > 0 {
			busy++
			sorted = sorted && slices.IsSortedFunc(ev, byTimeSeq)
		}
	}
	return busy, sorted
}
