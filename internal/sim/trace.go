package sim

// Flight-recorder glue for the virtual backend, and the equal-tick
// ordering contract the trace-order golden pins.
//
// # Equal-tick ordering
//
// The simulator emits trace events from its single event-loop goroutine
// in processing order, and the merged trace is ordered by (Time, Seq) —
// so at EQUAL virtual timestamps the documented, deterministic order is
// the loop's own serve order:
//
//  1. an observation mark (KMark) fires at the top of the loop
//     iteration, BEFORE the request/event that iteration serves — a mark
//     and a scheduling event at the same tick always order mark first
//     unless the event was emitted by an earlier iteration;
//  2. a completion (KComplete) is recorded before the scheduler absorbs
//     it, so every dispatch it enables — same tick included — carries a
//     larger Seq and orders after it;
//  3. events at one tick otherwise serve in the queue's tie-break order
//     (asks before completions, then push order), and their trace
//     records inherit exactly that order.
//
// The contract makes virtual traces byte-stable: two identical-seed runs
// produce identical merged traces (tracediff reports zero divergence),
// pinned by TestTraceOrderGolden.

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// bindTrace fills rec's run description from the machine being priced
// and returns the simulator's ring (ring 0 — one emitting goroutine).
// The caller-set Backend survives; everything the simulator knows better
// is overwritten.
func bindTrace(rec *trace.Recorder, model MgmtModel, workers int, progs ...*core.Program) *trace.Ring {
	m := rec.Meta()
	if m.Backend == "" {
		m.Backend = "virtual"
	}
	m.Model = model.String()
	m.Workers = workers
	m.TimeUnit = trace.UnitVirtual
	if len(progs) > 0 && progs[0] != nil && len(m.Phases) == 0 {
		for _, ph := range progs[0].Phases {
			m.Phases = append(m.Phases, trace.PhaseMeta{Name: ph.Name, Granules: ph.Granules})
		}
	}
	return rec.Ring(0)
}
