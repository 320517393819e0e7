package trace

import (
	"fmt"
	"io"
)

// PhaseDelta compares one phase's utilization between two traces: busy
// time is the summed busy intervals of the phase's tasks (EachBusy), and
// utilization divides it by the trace's whole busy window times its
// worker count.
type PhaseDelta struct {
	Phase        int32
	Name         string
	BusyA, BusyB int64
	UtilA, UtilB float64
}

// DiffResult reports how two traces compare. Two deterministic (virtual)
// traces of the same run are expected to be identical event for event;
// wall-clock traces are compared structurally (timestamps and durations
// never repeat across real runs).
type DiffResult struct {
	// Identical: every event matched under the comparison rule.
	Identical bool
	// DivergeAt is the index of the first differing event (-1 when
	// identical). When one trace is a prefix of the other, it is the
	// shorter length and the missing side's event is nil.
	DivergeAt int
	// A, B are the first diverging events (nil past a trace's end).
	A, B *Event
	// Reason says what differed.
	Reason string
	// Exact: timestamps and payloads were compared too (both traces
	// virtual), not just structure.
	Exact bool
	// Phases holds the per-phase utilization deltas regardless of
	// divergence, union of phases seen in either trace, ascending.
	Phases []PhaseDelta
}

// sameStructure compares the schedule-shaped fields: what happened, on
// which processor, for which job/phase/granules.
func sameStructure(a, b *Event) bool {
	return a.Kind == b.Kind && a.Proc == b.Proc && a.Job == b.Job &&
		a.Phase == b.Phase && a.Lo == b.Lo && a.Hi == b.Hi
}

// Diff aligns traces a and b event by event and reports the first
// divergence plus per-phase utilization deltas. When both traces carry
// virtual timestamps the comparison is exact (Time and Arg included);
// otherwise only the structure is compared.
func Diff(a, b *Trace) *DiffResult {
	exact := a.Meta.Virtual() && b.Meta.Virtual()
	res := &DiffResult{Identical: true, DivergeAt: -1, Exact: exact}

	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	for i := 0; i < n; i++ {
		ea, eb := &a.Events[i], &b.Events[i]
		switch {
		case !sameStructure(ea, eb):
			res.Reason = "structure differs"
		case exact && ea.Time != eb.Time:
			res.Reason = fmt.Sprintf("virtual time differs (%d vs %d)", ea.Time, eb.Time)
		case exact && ea.Arg != eb.Arg:
			res.Reason = fmt.Sprintf("payload differs (%d vs %d)", ea.Arg, eb.Arg)
		default:
			continue
		}
		res.Identical = false
		res.DivergeAt = i
		res.A, res.B = ea, eb
		break
	}
	if res.Identical && len(a.Events) != len(b.Events) {
		res.Identical = false
		res.DivergeAt = n
		if len(a.Events) > n {
			res.A = &a.Events[n]
		}
		if len(b.Events) > n {
			res.B = &b.Events[n]
		}
		res.Reason = fmt.Sprintf("lengths differ (%d vs %d events)", len(a.Events), len(b.Events))
	}

	res.Phases = phaseDeltas(a, b)
	return res
}

func phaseBusy(t *Trace) map[int32]int64 {
	m := map[int32]int64{}
	t.EachBusy(func(iv Interval) { m[iv.Phase] += iv.T1 - iv.T0 })
	return m
}

func phaseDeltas(a, b *Trace) []PhaseDelta {
	ba, bb := phaseBusy(a), phaseBusy(b)
	maxPhase := int32(-1)
	for p := range ba {
		if p > maxPhase {
			maxPhase = p
		}
	}
	for p := range bb {
		if p > maxPhase {
			maxPhase = p
		}
	}
	if maxPhase < 0 {
		return nil
	}
	capA := capacity(a)
	capB := capacity(b)
	out := make([]PhaseDelta, 0, maxPhase+1)
	for p := int32(0); p <= maxPhase; p++ {
		if _, okA := ba[p]; !okA {
			if _, okB := bb[p]; !okB {
				continue
			}
		}
		d := PhaseDelta{Phase: p, BusyA: ba[p], BusyB: bb[p]}
		if int(p) < len(a.Meta.Phases) {
			d.Name = a.Meta.Phases[p].Name
		} else if int(p) < len(b.Meta.Phases) {
			d.Name = b.Meta.Phases[p].Name
		}
		if capA > 0 {
			d.UtilA = float64(d.BusyA) / capA
		}
		if capB > 0 {
			d.UtilB = float64(d.BusyB) / capB
		}
		out = append(out, d)
	}
	return out
}

// capacity is workers × busy-window length: the denominator turning a
// phase's busy time into its share of the machine.
func capacity(t *Trace) float64 {
	start, end := t.Span()
	if end <= start {
		return 0
	}
	return float64(t.Procs()) * float64(end-start)
}

// Format renders the diff as a human-readable report.
func (r *DiffResult) Format(w io.Writer) {
	if r.Identical {
		fmt.Fprintf(w, "traces identical (%s comparison)\n", r.mode())
	} else {
		fmt.Fprintf(w, "traces diverge at event %d (%s comparison): %s\n", r.DivergeAt, r.mode(), r.Reason)
		if r.A != nil {
			fmt.Fprintf(w, "  a: %v\n", *r.A)
		} else {
			fmt.Fprintf(w, "  a: <ended>\n")
		}
		if r.B != nil {
			fmt.Fprintf(w, "  b: %v\n", *r.B)
		} else {
			fmt.Fprintf(w, "  b: <ended>\n")
		}
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "per-phase utilization:\n")
		for _, d := range r.Phases {
			name := d.Name
			if name == "" {
				name = fmt.Sprintf("phase%d", d.Phase)
			}
			fmt.Fprintf(w, "  %2d %-24s busy %12d vs %-12d util %.4f vs %.4f (Δ%+.4f)\n",
				d.Phase, name, d.BusyA, d.BusyB, d.UtilA, d.UtilB, d.UtilB-d.UtilA)
		}
	}
}

func (r *DiffResult) mode() string {
	if r.Exact {
		return "exact"
	}
	return "structural"
}
