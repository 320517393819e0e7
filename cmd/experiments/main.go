// Command experiments regenerates every quantitative claim of Jones (1986)
// — the E1..E13 experiment suite indexed in DESIGN.md — and prints the
// result tables. EXPERIMENTS.md is produced from this tool's -md output at
// -scale full.
//
// -manager restricts the goroutine experiments (E10, E13) to one manager,
// by the names cmd/rundownsim accepts, or "both" runs the manager
// comparisons head-to-head; -batch sets their completion batch.
// Adaptive batching is priced in virtual time, by E12, on every run.
//
// Usage:
//
//	experiments [-scale quick|full] [-only E3] [-md] [-manager serial|sharded|async|both] [-batch N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	rundown "repro"
	"repro/internal/cliflags"
	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment sizing: quick or full")
	only := flag.String("only", "", "run a single experiment (e.g. E3)")
	md := flag.Bool("md", false, "emit markdown tables instead of aligned text")
	manager := flag.String("manager", "both",
		"executive manager filter for E10/E13: "+cliflags.ManagerNames()+
			", or both (E10 compares serial/sharded; E13 adds async)")
	batch := flag.Int("batch", 0, "completion batch size for E10/E13 (0 = the managers' default, 8)")
	flag.Parse()

	// The filter accepts the manager names (case-insensitive, via the same
	// parser the Runner options use) plus "both".
	filter := strings.ToLower(strings.TrimSpace(*manager))
	if filter != "both" && filter != "" {
		kind, err := rundown.ParseExecManager(filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		filter = kind.String()
	}
	if err := experiments.SetManagerFilter(filter); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	experiments.SetExecKnobs(*batch)

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (quick|full)\n", *scaleFlag)
		os.Exit(2)
	}

	ran := 0
	for _, spec := range experiments.All() {
		if *only != "" && spec.ID != *only {
			continue
		}
		ran++
		tbl, err := spec.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		if *md {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Format())
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches %q\n", *only)
		os.Exit(2)
	}
}
