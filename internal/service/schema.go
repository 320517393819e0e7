// Package service is rundown-as-a-service: a long-lived HTTP daemon
// (cmd/rundownd) owning one hot multi-tenant pool. Jobs arrive as
// declarative JSON specs, run on the shared workers under the
// overlap-first dispatch policy, and are observable end to end — SSE
// progress snapshots, Prometheus metrics, pprof, and downloadable
// flight-recorder traces. A "latency" service class adds measured
// admission control: the daemon projects the slowdown a co-tenant's
// backfill would impose and refuses the job (HTTP 429, structured
// reason) when the projection exceeds the job's tolerance.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	rundown "repro"
)

// Service classes. The pool itself is class-agnostic; these labels are
// the service layer's contract.
const (
	// ClassBatch is throughput work with no admission predicate beyond
	// the pool's high-water mark.
	ClassBatch = "batch"
	// ClassLatency is interference-sensitive work: admitted only when
	// the projected co-tenancy slowdown stays within the job's
	// tolerance (see admission.go).
	ClassLatency = "latency"
)

// WorkloadSpec declares a job's program without shipping code: a named
// generator plus its parameters. The daemon materializes it with the
// workload package's builders.
type WorkloadSpec struct {
	// Kind selects the generator: "chain" (default) — a linear program
	// of Phases phases linked by Mapping — or "casper", the paper's
	// 22-phase CASPER census program.
	Kind string `json:"kind,omitempty"`
	// Mapping is the chain's between-phase enablement mapping, any name
	// rundown.ParseMappingKind takes ("identity" default).
	Mapping string `json:"mapping,omitempty"`
	// Phases and Granules size the chain (defaults 2 and 256).
	Phases   int `json:"phases,omitempty"`
	Granules int `json:"granules,omitempty"`
	// CostLo and CostHi bound the per-granule virtual cost, drawn
	// uniformly per granule from Seed (defaults 1 and CostLo).
	CostLo int64  `json:"cost_lo,omitempty"`
	CostHi int64  `json:"cost_hi,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// WorkMicros attaches a real per-granule computation: a busy-spin of
	// this many microseconds (0 = none, cap 10000). This is what makes a
	// service job occupy the pool for measurable wall time.
	WorkMicros int `json:"work_us,omitempty"`
	// Cycles unrolls the casper census this many times (casper kind
	// only; default 1).
	Cycles int `json:"cycles,omitempty"`
}

// JobSpec is the POST /v1/jobs request body: the backend-agnostic job
// description, entirely declarative.
type JobSpec struct {
	// Name labels the job in reports and errors (default "jobN").
	Name string `json:"name,omitempty"`
	// Workload declares the program to run.
	Workload WorkloadSpec `json:"workload"`
	// Grain caps granules per task (0 = scheduler default); Overlap
	// enables phase overlap (nil = true, the service default — the
	// paper's subject is overlap, barriers are the opt-in baseline).
	Grain   int   `json:"grain,omitempty"`
	Overlap *bool `json:"overlap,omitempty"`
	// Priority and Weight steer cross-job backfill (tenant pool
	// semantics).
	Priority int `json:"priority,omitempty"`
	Weight   int `json:"weight,omitempty"`
	// DeadlineMillis bounds submit-to-finish wall time (0 = none);
	// Retry/BackoffMillis configure attempt restarts.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	Retry          int   `json:"retry,omitempty"`
	BackoffMillis  int64 `json:"backoff_ms,omitempty"`
	// Class is the service class ("", "batch", "latency");
	// TolerancePct is the latency class's projected-slowdown budget in
	// percent (required > 0 for latency jobs).
	Class        string  `json:"class,omitempty"`
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
	// Faults arms a deterministic fault campaign scoped to this job
	// (staging use). Rule Job fields are rewritten to the submitted
	// job's pool index; worker-scoped rules (WorkerCrash, WorkerSlow)
	// strike the shared pool's workers and so can affect co-tenants.
	Faults *rundown.FaultSpec `json:"faults,omitempty"`
}

// Spec limits: a public daemon refuses absurd programs outright rather
// than letting one spec occupy the pool beyond reason.
const (
	maxPhases     = 64
	maxGranules   = 1 << 20
	maxWorkMicros = 10000
	maxCycles     = 16
)

// decodeJobSpec is the strict decoder of a submit body: unknown fields are
// refused, defaults applied and the limits above enforced.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	return spec, spec.normalize()
}

// normalize applies spec defaults and validates the result.
func (s *JobSpec) normalize() error {
	w := &s.Workload
	if w.Kind == "" {
		w.Kind = "chain"
	}
	if w.Kind != "chain" && w.Kind != "casper" {
		return fmt.Errorf("workload.kind %q unknown (valid kinds: chain|casper)", w.Kind)
	}
	if w.Mapping == "" {
		w.Mapping = "identity"
	}
	if w.Phases == 0 {
		w.Phases = 2
	}
	if w.Granules == 0 {
		w.Granules = 256
	}
	if w.CostLo == 0 {
		w.CostLo = 1
	}
	if w.CostHi == 0 {
		w.CostHi = w.CostLo
	}
	if w.Cycles == 0 {
		w.Cycles = 1
	}
	switch {
	case w.Phases < 1 || w.Phases > maxPhases:
		return fmt.Errorf("workload.phases %d out of range [1, %d]", w.Phases, maxPhases)
	case w.Granules < 1 || w.Granules > maxGranules:
		return fmt.Errorf("workload.granules %d out of range [1, %d]", w.Granules, maxGranules)
	case w.CostLo < 1 || w.CostHi < w.CostLo:
		return fmt.Errorf("workload cost bounds [%d, %d] invalid (need 1 <= lo <= hi)", w.CostLo, w.CostHi)
	case w.WorkMicros < 0 || w.WorkMicros > maxWorkMicros:
		return fmt.Errorf("workload.work_us %d out of range [0, %d]", w.WorkMicros, maxWorkMicros)
	case w.Cycles < 1 || w.Cycles > maxCycles:
		return fmt.Errorf("workload.cycles %d out of range [1, %d]", w.Cycles, maxCycles)
	}
	switch s.Class {
	case "", ClassBatch:
	case ClassLatency:
		if s.TolerancePct <= 0 {
			return fmt.Errorf("class %q requires tolerance_pct > 0", ClassLatency)
		}
	default:
		return fmt.Errorf("class %q unknown (valid classes: %s|%s)", s.Class, ClassBatch, ClassLatency)
	}
	if s.Grain < 0 {
		return fmt.Errorf("grain %d negative", s.Grain)
	}
	if s.DeadlineMillis < 0 || s.BackoffMillis < 0 || s.Retry < 0 {
		return fmt.Errorf("deadline_ms, backoff_ms and retry must be non-negative")
	}
	return nil
}

// buildProgram materializes the workload spec into a runnable program,
// attaching the busy-spin work function when work_us is set.
func (s *JobSpec) buildProgram() (*rundown.Program, error) {
	w := s.Workload
	cost := rundown.UniformCost(rundown.Cost(w.CostLo), rundown.Cost(w.CostHi), w.Seed)
	var prog *rundown.Program
	var err error
	switch w.Kind {
	case "casper":
		prog, err = rundown.CasperProgram(rundown.CasperConfig{
			Cycles: w.Cycles, Cost: cost, Seed: w.Seed,
		})
	default:
		kind, kerr := rundown.ParseMappingKind(w.Mapping)
		if kerr != nil {
			return nil, kerr
		}
		prog, err = rundown.Chain(kind, w.Phases, w.Granules, cost, w.Seed)
	}
	if err != nil {
		return nil, err
	}
	if w.WorkMicros > 0 {
		work := spinWork(time.Duration(w.WorkMicros) * time.Microsecond)
		for _, ph := range prog.Phases {
			ph.Work = work
		}
	}
	return prog, nil
}

// options converts the spec's scheduler knobs.
func (s *JobSpec) options() rundown.Options {
	opt := rundown.Options{Grain: s.Grain, Overlap: true}
	if s.Overlap != nil {
		opt.Overlap = *s.Overlap
	}
	return opt
}

// spinWork returns a per-granule work function that busy-spins for d —
// real computation the pool's workers must serve, without touching
// shared state.
func spinWork(d time.Duration) rundown.WorkFn {
	return func(rundown.GranuleID) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
}
