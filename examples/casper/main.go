// Casper: the mini-CFD pipeline that exercises every enablement-mapping
// kind of the paper with real arithmetic — universal (power-compression to
// interpolator-matrix, the paper's own example), identity, reverse
// indirect (gather), a serial decision forcing a null mapping, and forward
// indirect (scatter). The overlapped parallel run must match the serial
// reference bit for bit. The example also classifies each adjacent phase
// pair from its access footprints alone and prints the resulting census.
//
//	go run ./examples/casper
package main

import (
	"context"
	"fmt"
	"log"

	rundown "repro"
)

func main() {
	const n = 4096

	ref, err := rundown.NewPipeline(n)
	if err != nil {
		log.Fatal(err)
	}
	ref.RunSerial()

	par, _ := rundown.NewPipeline(n)
	prog, err := par.Program()
	if err != nil {
		log.Fatal(err)
	}
	runner, err := rundown.New(rundown.WithWorkers(8))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: rundown.Options{
		Grain:   128,
		Overlap: true,
		Elevate: true,
		Costs:   rundown.DefaultCosts(),
	}})
	if err != nil {
		log.Fatal(err)
	}
	for i := range ref.Out {
		if par.Out[i] != ref.Out[i] {
			log.Fatalf("out[%d] = %v, want %v", i, par.Out[i], ref.Out[i])
		}
	}
	fmt.Printf("pipeline over %d points: wall=%v tasks=%d, parallel result bit-identical to serial\n\n",
		n, rep.Wall, rep.Tasks)

	// Classify every adjacent phase pair from footprints alone and show
	// the declared mapping next to it.
	small, _ := rundown.NewPipeline(64)
	sprog, _ := small.Program()
	fps := small.Footprints()
	fmt.Println("phase-pair classification (inferred from access footprints):")
	for i := 0; i < len(sprog.Phases)-1; i++ {
		kind, m := rundown.Infer(fps[i], sprog.Phases[i].Granules, fps[i+1], sprog.Phases[i+1].Granules)
		declared := sprog.Phases[i].EnableKind()
		if err := rundown.Verify(m, fps[i], sprog.Phases[i].Granules, fps[i+1], sprog.Phases[i+1].Granules); err != nil {
			log.Fatalf("inferred mapping fails verification: %v", err)
		}
		note := ""
		if declared != kind {
			note = "  (serial decision between the phases forces null)"
		}
		fmt.Printf("  %-20s -> %-16s inferred=%-17v declared=%v%s\n",
			sprog.Phases[i].Name, sprog.Phases[i+1].Name, kind, declared, note)
	}

	// The paper's published CASPER census for comparison.
	fmt.Println("\nPAX/CASPER census (paper, 22 phases / 1188 parallel lines):")
	counts := map[rundown.MappingKind]int{}
	for _, c := range rundown.Census() {
		counts[c.Kind]++
	}
	for _, k := range []rundown.MappingKind{
		rundown.KindUniversal, rundown.KindIdentity, rundown.KindNull,
		rundown.KindReverse, rundown.KindForward,
	} {
		fmt.Printf("  %-17v %d phases\n", k, counts[k])
	}
}
