// Dynamicmap: the paper's reverse indirect mapping with a dynamically
// generated information selection map (the IMAP fragment). A producer
// phase fills A; a gather phase sums randomly selected elements of A per
// output. The composite granule map is generated by the executive in idle
// time, the enabling producer granules are elevated in the waiting queue,
// and an enablement counter releases the planned successor subset — all
// three control strategies from the paper's final section, visible in the
// scheduler statistics.
//
//	go run ./examples/dynamicmap
package main

import (
	"context"
	"fmt"
	"log"

	rundown "repro"
)

func main() {
	const (
		nProduce = 8192
		nGather  = 2048
		fan      = 4
	)

	// The dynamically generated selection map (IMAP(J,I) = IRAND()).
	imap := make([]rundown.GranuleID, nGather*fan)
	state := uint64(2463534242)
	for i := range imap {
		// xorshift: deterministic "IRAND()"
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		imap[i] = rundown.GranuleID(state % nProduce)
	}

	a := make([]float64, nProduce)
	b := make([]float64, nGather)
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name:     "produce",
			Granules: nProduce,
			Work:     func(g rundown.GranuleID) { a[g] = float64(g) * 0.001 },
			Enable:   rundown.ReverseIMAP(imap, fan),
		},
		&rundown.Phase{
			Name:     "gather",
			Granules: nGather,
			Work: func(g rundown.GranuleID) {
				var sum float64
				for j := 0; j < fan; j++ {
					sum += a[imap[int(g)*fan+j]]
				}
				b[g] = sum
			},
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Real goroutine run: dependence-respecting overlap, checked results.
	runner, err := rundown.New(rundown.WithWorkers(8))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: rundown.Options{
		Grain:      128,
		Overlap:    true,
		Elevate:    true,
		SubsetSize: 256,
		// On the real executive, map construction is cheap wall-clock
		// work; build it inline so the overlap machinery engages even on
		// a short run (the simulator studies the deferred strategy).
		InlineMaps: true,
		Costs:      rundown.DefaultCosts(),
	}})
	if err != nil {
		log.Fatal(err)
	}
	for g := 0; g < nGather; g++ {
		var want float64
		for j := 0; j < fan; j++ {
			want += float64(imap[g*fan+j]) * 0.001
		}
		if b[g] != want {
			log.Fatalf("b[%d] = %v, want %v", g, b[g], want)
		}
	}
	st := rep.Exec.Sched
	fmt.Printf("goroutine run: wall=%v tasks=%d — gathers never ran before their sources\n", rep.Wall, rep.Tasks)
	fmt.Printf("executive work: composite-map entries=%d elevations=%d releases=%d\n\n",
		st.TableEntries, st.Elevations, st.Releases)

	// Deterministic comparison of the three stances on the same workload.
	simulator, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 32, Mgmt: rundown.StealsWorker}))
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		overlap bool
		elevate bool
	}{
		{"barrier", false, false},
		{"overlap", true, false},
		{"overlap+elevation", true, true},
	} {
		prog, _ := rundown.Chain(rundown.KindReverse, 2, 4096, rundown.UniformCost(100, 400, 9), 9)
		rep, err := simulator.Run(context.Background(), rundown.Job{Prog: prog, Opt: rundown.Options{
			Grain: 64, Overlap: c.overlap, Elevate: c.elevate, Costs: rundown.DefaultCosts(),
		}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s makespan=%-7d utilization=%5.1f%% idle=%d\n",
			c.name, rep.Makespan, 100*rep.Utilization, rep.Sim.IdleUnits)
	}
}
