// Paxlang: drive the scheduler from the control language the paper
// proposes. The source below uses the paper's own constructs — DEFINE
// PHASE with a define-time ENABLE list, DISPATCH with a branch-independent
// ENABLE clause, a conditional branch the executive preprocesses, and a
// loop — and the interpreter enforces the successor interlock while
// lowering the executed path into a runnable program.
//
//	go run ./examples/paxlang
package main

import (
	"context"
	"fmt"
	"log"

	rundown "repro"
)

const source = `
! A CASPER-flavoured iteration: smooth, gather residuals, then either
! another smoothing pass or a final output pack depending on the sweep
! counter. The branch does not depend on the gather results, so the
! executive may preprocess it (ENABLE/BRANCHINDEPENDENT).

DEFINE PHASE smooth GRANULES 2048 COST 200 LINES 61 ENABLE [ gather/MAPPING=REVERSE ]
DEFINE PHASE gather GRANULES 512  COST 150 LINES 39
DEFINE PHASE pack   GRANULES 1024 COST 100 LINES 44

SET sweep = 0

top:
DISPATCH smooth
DISPATCH gather
  ENABLE/BRANCHINDEPENDENT
  [ smooth/MAPPING=UNIVERSAL
    pack/MAPPING=UNIVERSAL ]
SET sweep = sweep + 1
IF (sweep .LT. 3) THEN GO TO top
DISPATCH pack
`

func main() {
	file, err := rundown.ParsePax(source)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rundown.InterpretPax(file, &rundown.PaxRegistry{Seed: 42}, rundown.PaxOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("executed dispatch sequence (with resolved mappings):")
	for i, d := range res.Dispatches {
		status := "unverified"
		if d.Verified {
			status = "verified"
		}
		fmt.Printf("  %2d %-10s -> next via %-16v (%s)\n", i, d.Instance, d.Mapping, status)
	}

	runner, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 24, Mgmt: rundown.StealsWorker}))
	if err != nil {
		log.Fatal(err)
	}
	for _, overlap := range []bool{false, true} {
		rep, err := runner.Run(context.Background(), rundown.Job{Prog: res.Program, Opt: rundown.Options{
			Overlap: overlap,
			Elevate: true,
			Costs:   rundown.DefaultCosts(),
		}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\noverlap=%-5v makespan=%-8d utilization=%.1f%% idle=%d",
			overlap, rep.Makespan, 100*rep.Utilization, rep.Sim.IdleUnits)
	}
	fmt.Println()
}
