// Package cliflags holds cmd/rundownsim's executive-selection flags —
// -manager, -adaptive and -batch — and the one resolution path that
// converts them into Runner options (rundown.New) under the CLI's
// conflict rules. ManagerNames is the manager list every CLI's -manager
// usage cites, so the commands cannot drift on names.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	rundown "repro"
)

// Exec holds the executive-selection flag values. Read them after
// fs.Parse.
type Exec struct {
	// Manager is the raw -manager value; parse it with Kind.
	Manager string
	// Adaptive is -adaptive: the adaptive batching controller — the
	// Adaptive model in virtual time; goroutine runs keep the sharded
	// manager's parameters fixed.
	Adaptive bool
	// Batch is the refill batch for adaptive runs (the controller's
	// starting point).
	Batch int

	fs *flag.FlagSet
}

// Register installs the flags on fs. managerDefault seeds -manager;
// managerUsage documents the accepted values for the caller's context.
func Register(fs *flag.FlagSet, managerDefault, managerUsage string) *Exec {
	e := &Exec{fs: fs}
	fs.StringVar(&e.Manager, "manager", managerDefault, managerUsage)
	fs.BoolVar(&e.Adaptive, "adaptive", false,
		"adaptive batching: worker-local buffers with the batch size retuned online (the Adaptive sim model; goroutine runs stay fixed sharded)")
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
	}
	if !dedicated {
		opts = append(opts, rundown.WithManager(kind))
	}
	return opts, nil
}
