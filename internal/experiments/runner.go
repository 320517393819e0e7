package experiments

import (
	"context"
	"slices"
	"strings"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/executive"
)

// Every table runs its programs through the front door, rundown.New plus
// Run or RunAll: the virtual tables on the discrete-event machine, E10 and
// E13 on goroutine workers.

// Goroutines configures the wall-clock experiments (E10, E13).
type Goroutines struct {
	// Managers restricts the tables to these managers; empty runs each
	// table's own head-to-head list.
	Managers []executive.ManagerKind
	// Opts are Runner options every goroutine run adds (cmd/experiments'
	// -batch).
	Opts []rundown.Option
}

// runs reports whether a table's row for kind is wanted.
func (g Goroutines) runs(kind executive.ManagerKind) bool {
	return len(g.Managers) == 0 || slices.Contains(g.Managers, kind)
}

// note adds the restriction, if any, to t's notes.
func (g Goroutines) note(t *Table) {
	if len(g.Managers) == 0 {
		return
	}
	names := make([]string, len(g.Managers))
	for i, m := range g.Managers {
		names[i] = m.String()
	}
	t.Note("restricted to -manager %s", strings.Join(names, ","))
}

// runOnGoroutines runs prog on workers goroutines under kind, with g's
// Runner options, and returns the job's execution report.
func (g Goroutines) runOnGoroutines(prog *core.Program, opt core.Options, workers int, kind executive.ManagerKind) (*executive.Report, error) {
	opts := append([]rundown.Option{rundown.WithWorkers(workers), rundown.WithManager(kind)}, g.Opts...)
	r, err := rundown.New(opts...)
	if err != nil {
		return nil, err
	}
	rep, err := r.Run(context.TODO(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		return nil, err
	}
	return rep.Exec, nil
}

// simulate prices prog alone on the virtual machine cfg, plus any further
// Runner options (E12's batch knobs), and returns the one-job view.
func simulate(prog *core.Program, opt core.Options, cfg rundown.SimConfig, opts ...rundown.Option) (*rundown.SimResult, error) {
	r, err := rundown.New(append(opts, rundown.WithVirtualTime(cfg))...)
	if err != nil {
		return nil, err
	}
	rep, err := r.Run(context.TODO(), rundown.Job{Prog: prog, Opt: opt})
	if err != nil {
		return nil, err
	}
	return rep.Sim, nil
}
