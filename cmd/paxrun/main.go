// Command paxrun interprets a PAX-language control program (the language
// construct the paper proposes: DEFINE PHASE / DISPATCH / ENABLE with
// mapping options, branch lookahead and successor interlock verification)
// and runs the resulting phase program on the discrete-event simulator.
//
// Usage:
//
//	paxrun [-procs N] [-overlap] [-grain G] [-trace] program.pax
//
// The dispatch log (-trace) shows which mapping was applied between each
// pair of dispatched phases and whether the executive could verify it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	rundown "repro"
)

func main() {
	var (
		procs   = flag.Int("procs", 16, "processor count")
		grain   = flag.Int("grain", 0, "granules per task (0 = default)")
		overlap = flag.Bool("overlap", true, "enable phase overlap")
		trace   = flag.Bool("trace", false, "print the dispatch log")
		seed    = flag.Uint64("seed", 7, "seed for generated information selection maps")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: paxrun [flags] program.pax")
		flag.PrintDefaults()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxrun: %v\n", err)
		os.Exit(1)
	}
	file, err := rundown.ParsePax(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxrun: %v\n", err)
		os.Exit(1)
	}
	res, err := rundown.InterpretPax(file, &rundown.PaxRegistry{Seed: *seed}, rundown.PaxOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxrun: %v\n", err)
		os.Exit(1)
	}

	if *trace {
		fmt.Println("dispatch log:")
		for i, d := range res.Dispatches {
			verified := "unverified"
			if d.Verified {
				verified = "verified"
			}
			fmt.Printf("  %2d %-20s mapping-to-next=%v (%s)\n", i, d.Instance, d.Mapping, verified)
		}
	}

	runner, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: *procs, Mgmt: rundown.StealsWorker}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxrun: %v\n", err)
		os.Exit(1)
	}
	rep, err := runner.Run(context.Background(), rundown.Job{Prog: res.Program, Opt: rundown.Options{
		Grain:   *grain,
		Overlap: *overlap,
		Elevate: true,
		Costs:   rundown.DefaultCosts(),
	}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxrun: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("phases=%d granules=%d procs=%d overlap=%v\n",
		len(res.Program.Phases), res.Program.TotalGranules(), *procs, *overlap)
	fmt.Printf("makespan %d  utilization %.1f%%  compute:management %.1f\n",
		rep.Sim.Makespan, rep.Sim.Utilization*100, rep.Sim.MgmtRatio)
}
