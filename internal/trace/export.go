package trace

// Timeline/Gantt/JSON export: the one derivation of a run's busy time. A
// trace alone reconstructs every task's busy interval on its processor,
// from one record per task:
//   - virtual traces stamp the task's charged cost on its KDispatch —
//     fault stretching included, and the work of an attempt that died
//     before its completion surfaced — so the task occupied
//     [Time, Time+Arg);
//   - wall-clock traces know the duration only at completion, so the task
//     occupied [Time-Arg, Time) before its KComplete.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Interval is one task's busy interval [T0, T1) on processor Proc.
type Interval struct {
	Proc  int32 `json:"proc"`
	Job   int32 `json:"job"`
	Phase int32 `json:"phase"`
	T0    int64 `json:"t0"`
	T1    int64 `json:"t1"`
}

// EachBusy calls fn with every task's busy interval, in trace order.
func (t *Trace) EachBusy(fn func(Interval)) {
	virtual := t.Meta.Virtual()
	kind := KComplete
	if virtual {
		kind = KDispatch
	}
	for i := range t.Events {
		e := &t.Events[i]
		if e.Kind != kind || e.Proc < 0 || e.Arg <= 0 {
			continue
		}
		iv := Interval{Proc: e.Proc, Job: e.Job, Phase: e.Phase, T0: e.Time - e.Arg, T1: e.Time}
		if virtual {
			iv.T0, iv.T1 = e.Time, e.Time+e.Arg
		}
		fn(iv)
	}
}

// Timeline is a run's utilization curve: the busy processor-time of every
// fixed-width bucket of the run's horizon.
type Timeline struct {
	procs int
	width int64
	busy  []int64
	end   int64
}

// Timeline buckets the trace's busy intervals into buckets of width
// bucket (<= 0 picks roughly 200 across the horizon) on a machine of procs
// processors, the count Curve and Utilization divide by — Meta.Workers
// counts only the computing ones. The horizon is the run's end: the
// KFinish record of a virtual trace (the makespan), otherwise the last
// busy instant.
func (t *Trace) Timeline(procs int, bucket int64) *Timeline {
	var end int64
	t.EachBusy(func(iv Interval) { end = max(end, iv.T1) })
	if t.Meta.Virtual() {
		for _, e := range t.Events {
			if e.Kind == KFinish {
				end = e.Time
			}
		}
	}
	if bucket <= 0 {
		bucket = end / 200
	}
	tl := &Timeline{procs: max(procs, 1), width: max(bucket, 1), end: end}
	t.EachBusy(tl.add)
	return tl
}

// add spreads iv over the buckets it overlaps.
func (tl *Timeline) add(iv Interval) {
	b0, b1 := iv.T0/tl.width, (iv.T1-1)/tl.width
	for int64(len(tl.busy)) <= b1 {
		tl.busy = append(tl.busy, 0)
	}
	if b0 == b1 {
		tl.busy[b0] += iv.T1 - iv.T0
		return
	}
	tl.busy[b0] += (b0+1)*tl.width - iv.T0
	for b := b0 + 1; b < b1; b++ {
		tl.busy[b] += tl.width
	}
	tl.busy[b1] += iv.T1 - b1*tl.width
}

// BucketWidth returns the bucket width in the trace's time unit.
func (tl *Timeline) BucketWidth() int64 { return tl.width }

// End returns the horizon.
func (tl *Timeline) End() int64 { return tl.end }

// BusyTotal returns the total busy processor-time.
func (tl *Timeline) BusyTotal() int64 {
	var s int64
	for _, b := range tl.busy {
		s += b
	}
	return s
}

// Utilization returns busy / (procs × horizon).
func (tl *Timeline) Utilization() float64 {
	if tl.end == 0 {
		return 0
	}
	return float64(tl.BusyTotal()) / (float64(tl.procs) * float64(tl.end))
}

// Curve returns the per-bucket utilization in [0,1] up to the horizon. The
// last bucket is normalized by its partial width.
func (tl *Timeline) Curve() []float64 {
	if tl.end == 0 {
		return nil
	}
	nb := (tl.end + tl.width - 1) / tl.width
	out := make([]float64, nb)
	for i := int64(0); i < nb; i++ {
		w := min(tl.width, tl.end-i*tl.width)
		var b int64
		if int(i) < len(tl.busy) {
			b = tl.busy[i]
		}
		out[i] = float64(b) / (float64(tl.procs) * float64(w))
	}
	return out
}

// Gantt renders the trace's busy intervals as an ASCII chart of procs
// rows, one per processor, and at most maxCols time columns (longer
// horizons are scaled down). Each cell shows the phase letter of the
// interval covering most of it, '.' when idle. Memory is O(tasks): use it
// on small runs.
func (t *Trace) Gantt(procs, maxCols int) string {
	rows := make([][]Interval, procs)
	var end int64
	t.EachBusy(func(iv Interval) {
		if int(iv.Proc) < procs {
			rows[iv.Proc] = append(rows[iv.Proc], iv)
			end = max(end, iv.T1)
		}
	})
	if end == 0 || maxCols <= 0 {
		return ""
	}
	cell := max((end+int64(maxCols)-1)/int64(maxCols), 1)
	cols := int((end + cell - 1) / cell)
	var b strings.Builder
	fmt.Fprintf(&b, "time: 1 col = %d units, horizon = %d\n", cell, end)
	for p, row := range rows {
		line := make([]rune, cols)
		fill := make([]int64, cols)
		for i := range line {
			line[i] = '.'
		}
		sort.Slice(row, func(i, j int) bool { return row[i].T0 < row[j].T0 })
		for _, s := range row {
			for c := s.T0 / cell; c*cell < s.T1 && int(c) < cols; c++ {
				lo, hi := max(c*cell, s.T0), min(c*cell+cell, s.T1)
				if hi-lo > fill[c] {
					fill[c] = hi - lo
					line[c] = rune('A' + int(s.Phase)%26)
				}
			}
		}
		fmt.Fprintf(&b, "p%02d |%s|\n", p, string(line))
	}
	return b.String()
}

// jsonTrace is the export schema: the run description, one object per
// event, and the reconstructed busy spans ready for external plotting.
type jsonTrace struct {
	Meta   Meta        `json:"meta"`
	Events []jsonEvent `json:"events"`
	Spans  []Interval  `json:"spans"`
}

type jsonEvent struct {
	Seq   uint64 `json:"seq"`
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Proc  int32  `json:"proc"`
	Job   int32  `json:"job"`
	Phase int32  `json:"phase"`
	Lo    uint32 `json:"lo,omitempty"`
	Hi    uint32 `json:"hi,omitempty"`
	Arg   int64  `json:"arg,omitempty"`
}

// WriteJSON exports the trace for external tooling: meta, the full event
// list, and every task's busy span (EachBusy).
func (t *Trace) WriteJSON(w io.Writer) error {
	out := jsonTrace{
		Meta:   t.Meta,
		Events: make([]jsonEvent, len(t.Events)),
		Spans:  []Interval{},
	}
	out.Meta.Version = FormatVersion
	for i, e := range t.Events {
		out.Events[i] = jsonEvent{
			Seq: e.Seq, T: e.Time, Kind: e.Kind.String(),
			Proc: e.Proc, Job: e.Job, Phase: e.Phase,
			Lo: e.Lo, Hi: e.Hi, Arg: e.Arg,
		}
	}
	t.EachBusy(func(iv Interval) { out.Spans = append(out.Spans, iv) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
