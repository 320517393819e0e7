// Checkerboard: the paper's running example. First the worked arithmetic
// (1024x1024 grid on 1000 processors: 524 computations per processor, 288
// left over, 712 processors idle in the final wave), then a real red/black
// SOR solve on goroutines where the seam mapping — the stencil extension
// the paper forecasts — overlaps the colour phases, with bit-identical
// results to the serial solver.
//
//	go run ./examples/checkerboard
package main

import (
	"context"
	"fmt"
	"log"

	rundown "repro"
)

func main() {
	// Part 1: the paper's rundown arithmetic, exactly.
	ic, err := rundown.NewIdealCheckerboard(1024)
	if err != nil {
		log.Fatal(err)
	}
	each, left, idle := ic.Leftover(1000)
	fmt.Printf("1024x1024 grid: %d computations per phase\n", ic.PhaseGranules())
	fmt.Printf("on 1000 processors: %d each, %d left over -> %d processors idle in the final wave\n\n",
		each, left, idle)

	// Part 2: a real SOR solve, barrier vs seam overlap.
	const n, sweeps = 64, 8
	ref, err := rundown.NewGrid(n, 1.5, rundown.HotEdgeBoundary(n))
	if err != nil {
		log.Fatal(err)
	}
	for s := 0; s < sweeps; s++ {
		ref.SerialSweep(0)
		ref.SerialSweep(1)
	}

	runner, err := rundown.New(rundown.WithWorkers(8))
	if err != nil {
		log.Fatal(err)
	}
	for _, seam := range []bool{false, true} {
		g, err := rundown.NewGrid(n, 1.5, rundown.HotEdgeBoundary(n))
		if err != nil {
			log.Fatal(err)
		}
		prog, err := g.SORProgram(sweeps, seam)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: rundown.Options{
			Grain:   64,
			Overlap: true,
			Costs:   rundown.DefaultCosts(),
		}})
		if err != nil {
			log.Fatal(err)
		}
		exact := true
		for p := range ref.Phi {
			if g.Phi[p] != ref.Phi[p] {
				exact = false
				break
			}
		}
		fmt.Printf("seam=%-5v wall=%-12v tasks=%-4d residual=%.3e bit-identical-to-serial=%v\n",
			seam, rep.Wall, rep.Tasks, g.Residual(), exact)
	}
	fmt.Println("\nthe seam mapping releases each point of the next colour as soon as its")
	fmt.Println("four neighbours are relaxed — the overlap the paper deferred as future work")
}
