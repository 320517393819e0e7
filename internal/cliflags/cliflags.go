// Package cliflags centralizes the executive-selection flags shared by
// cmd/rundownsim and cmd/experiments: -manager, -adaptive, -ready,
// -low-water and -batch are registered once here, and the parsed values
// convert into Runner options (rundown.New) through one resolution path,
// so the two CLIs cannot drift on names, conflict rules, or defaults.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	rundown "repro"
)

// Exec holds the shared executive-selection flag values. Read them after
// fs.Parse.
type Exec struct {
	// Manager is the raw -manager value. Parse it with Kind, or pass it
	// verbatim to a filter that accepts extra values (experiments'
	// "both").
	Manager string
	// Adaptive is -adaptive: the adaptive batching controller — the
	// Adaptive model in virtual time; goroutine runs keep the sharded
	// manager's parameters fixed.
	Adaptive bool
	// Ready and LowWater are the async manager's ready-buffer knobs.
	Ready    int
	LowWater int
	// Batch is the refill batch for adaptive runs (the controller's
	// starting point).
	Batch int

	fs *flag.FlagSet
}

// Register installs the shared flags on fs. managerDefault seeds
// -manager ("serial" for rundownsim, "both" for experiments' filter);
// managerUsage documents the accepted values for the caller's context.
func Register(fs *flag.FlagSet, managerDefault, managerUsage string) *Exec {
	e := &Exec{fs: fs}
	fs.StringVar(&e.Manager, "manager", managerDefault, managerUsage)
	fs.BoolVar(&e.Adaptive, "adaptive", false,
		"adaptive batching: worker-local buffers with the batch size retuned online (the Adaptive sim model; goroutine runs stay fixed sharded)")
	fs.IntVar(&e.Ready, "ready", 0,
		"ready-buffer bound for -manager async (0 = 16*workers on goroutines; in virtual time 2*workers split across the jobs, min 8 each)")
	fs.IntVar(&e.LowWater, "low-water", 0,
		"deferred-overlap low-water mark for -manager async (0 = ready/4)")
	fs.IntVar(&e.Batch, "batch", 0,
		"refill/completion batch size (0 = model default: 16 for the adaptive sim model — its controller starting point — and 8 for the goroutine managers)")
	return e
}

// ManagerNames returns the accepted -manager spellings ("serial|sharded|
// async"), for building usage strings.
func ManagerNames() string { return strings.Join(rundown.ExecManagerNames(), "|") }

// ManagerSet reports whether -manager was passed explicitly (call after
// fs.Parse).
func (e *Exec) ManagerSet() bool {
	set := false
	e.fs.Visit(func(f *flag.Flag) {
		if f.Name == "manager" {
			set = true
		}
	})
	return set
}

// Kind parses the -manager value case-insensitively; the error
// enumerates the valid names.
func (e *Exec) Kind() (rundown.ExecManager, error) {
	return rundown.ParseExecManager(e.Manager)
}

// Options resolves the parsed flags into Runner options, enforcing the
// conflict rules the CLIs share. dedicated is rundownsim's -dedicated
// flag (the virtual serial model's own-processor variant); callers
// without that flag pass false. Dedicated is a management model, not a
// manager: with dedicated set no WithManager is returned (serial is the
// Runner's default), so the caller's SimConfig.Mgmt names the model.
//
// Rules preserved from the pre-extraction parsers: -adaptive is its own
// management layer, so it conflicts with an explicit -manager and with
// -dedicated; -manager sharded runs management inline on the workers, so
// it conflicts with -dedicated; -manager async *is* the dedicated
// processor, so -dedicated is redundant and rejected.
func (e *Exec) Options(dedicated bool) ([]rundown.Option, error) {
	if e.Adaptive {
		if dedicated {
			return nil, fmt.Errorf("-dedicated conflicts with -adaptive (management runs inline on the workers)")
		}
		if e.ManagerSet() {
			return nil, fmt.Errorf("-manager conflicts with -adaptive (the adaptive model is its own management layer)")
		}
		return []rundown.Option{
			rundown.WithManager(rundown.ShardedManager),
			rundown.WithAdaptiveBatching(0),
			rundown.WithBatch(e.Batch),
		}, nil
	}
	kind, err := e.Kind()
	if err != nil {
		return nil, err
	}
	// -batch is a general executive knob (completion batch / drain chunk
	// for every goroutine manager, refill batch for the adaptive sim
	// model); 0 keeps each backend's own default.
	opts := []rundown.Option{rundown.WithBatch(e.Batch)}
	switch kind {
	case rundown.ShardedManager:
		if dedicated {
			return nil, fmt.Errorf("-dedicated conflicts with -manager sharded (management runs inline on the workers)")
		}
	case rundown.AsyncManager:
		if dedicated {
			return nil, fmt.Errorf("-dedicated is redundant with -manager async (the async executive is the dedicated processor, extended with the ready-buffer)")
		}
		opts = append(opts, rundown.WithReadyCap(e.Ready), rundown.WithLowWater(e.LowWater))
	}
	if !dedicated {
		opts = append(opts, rundown.WithManager(kind))
	}
	return opts, nil
}
