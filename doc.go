// Package rundown is a Go reproduction of W. H. Jones, "Increasing
// Processor Utilization During Parallel Computation Rundown" (NASA
// TM-87349, ICPP 1986).
//
// The paper observes that phase-structured parallel programs waste
// processors while a phase drains (computational rundown), and that in
// most practical cases portions of the *next* phase become correctly
// computable before the current phase finishes. It taxonomizes the
// enablement mappings between phases (universal, identity, null, forward
// indirect, reverse indirect), reports their frequency in a real parallel
// Navier-Stokes code (PAX/CASPER), proposes language constructs, and
// sketches executive control strategies.
//
// # The Runner front door
//
// The package is used through one configured entry point. New builds a
// Runner from functional options; Run and RunAll execute the same
// backend-agnostic Job spec on whichever machine the options select:
//
//	r, _ := rundown.New(rundown.WithWorkers(8), rundown.WithManager(rundown.AsyncManager))
//	rep, err := r.Run(ctx, rundown.Job{Prog: prog, Opt: opt})
//
// Two machines stand behind the same two methods, and on each Run is the
// one-job case of RunAll:
//
//   - goroutines (default): real workers — one worker loop, the
//     multi-tenant pool's — run the phases' Work functions; several jobs
//     share the worker set under overlap-first dispatch, so one job's
//     rundown is filled by another job's work. Each job's scheduler sits
//     behind a pluggable executive manager — the paper-faithful
//     SerialManager (one global executive lock), the ShardedManager
//     (per-worker task and completion lanes, management run by the worker
//     that ran dry), or the AsyncManager (the same lanes, managed by one
//     dedicated background goroutine, the paper's separate executive
//     processor, when a core is spare for it).
//     WithPool only relabels this machine;
//   - the virtual machine (WithVirtualTime): a deterministic
//     discrete-event simulation of a P-processor machine that prices
//     every management operation, with a resource model per manager
//     (StealsWorker, Dedicated, ShardedMgmt, AdaptiveMgmt, AsyncMgmt).
//
// Run and RunAll honor context cancellation end to end: cancelling ctx
// aborts the run at the next dispatch boundary, releases parked workers,
// joins every internal goroutine, and returns an error wrapping
// ctx.Err(). WithObserver streams live utilization/overhead Snapshots
// from all backends — wall-clock sampled on hardware, emitted at
// deterministic virtual-time marks in simulation. Every named manager
// and model runs on every door; an unknown value fails the run where it
// arrives (a model with ErrUnsupportedMgmt). Adaptive batching is a
// virtual-time model: goroutine runs keep the sharded manager's
// parameters fixed.
//
// # Flight recorder
//
// WithTrace turns on the flight recorder: every scheduling decision —
// dispatch, completion, backfill, park/unpark, injected fault, retry,
// abort, and in virtual time batch retune — is captured as a compact binary record in per-worker rings and
// merged into Report.Trace (and written to the given io.Writer, if any,
// in a versioned checksummed format readable with ReadTraceFile). On
// top of the trace: ReplayTrace re-executes a recorded schedule
// deterministically in the virtual machine with conservation checks,
// DiffTraces aligns two traces and reports the first divergence plus
// per-phase utilization deltas, and Trace.Timeline/Gantt/WriteJSON
// export the timeline. The trace is the only record of a run's busy
// time, on every backend: Trace.EachBusy derives each task's interval
// from its dispatch in virtual time and from its completion on
// hardware, and the utilization curve (Timeline) and ASCII chart
// (Gantt) are views of those intervals, divided by the processor count
// the caller gives. Virtual-backend traces are bit-deterministic;
// real-backend traces carry wall-clock timestamps and compare
// structurally.
//
// # Describing computations
//
//   - Phase/Program describe phase-structured computations with declared
//     enablement mappings (Universal, Identity, Null, Forward, Reverse,
//     Seam);
//   - ParsePax/InterpretPax accept the paper's PAX-style control language
//     (DEFINE PHASE / DISPATCH / ENABLE, branch lookahead, interlock
//     verification);
//   - Verify checks a declared mapping against granule access footprints
//     using the paper's PARALLEL(x, y) condition, and Infer classifies a
//     phase pair's mapping from footprints alone;
//   - Census and CasperProgram expose the paper's 22-phase PAX/CASPER
//     profile for experiments.
//
// The experiment harness reproducing every quantitative claim of the paper
// lives in cmd/experiments; see DESIGN.md and EXPERIMENTS.md.
package rundown
