package main

import (
	"container/heap"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Host-speed calibration for the two CPU-bound workloads.
//
// The reference host is a 2-core VM on a shared machine, and its speed on
// allocation- and cache-heavy code swings by ±15 % in waves a few minutes
// long (more in a bad spell), while a pure register loop barely moves: the
// neighbours take cache and memory bandwidth, not cycles. exec-fine and
// sim-scale are exactly that kind of code, so their raw times follow the
// waves and ten runs of one commit spread as wide as the regression bound.
// No statistic taken inside a window removes that — the window's fastest
// run drifts as much as its median.
//
// So each of those windows also times a fixed kernel of the same kind of
// work, once after every round, and reports its times (set-up time too) and
// rates at reference speed: a time is multiplied, and a rate divided, by
//
//	speed = calibNominal / median(kernel time in this window)
//
// On a quiet host speed ≈ 1 and the numbers read as raw milliseconds. The
// kernel is benchmark code and never changes with the program, so it
// cancels between two commits; a change to the program shows in full. The
// factor is printed with every run and is the per-layer metric
// bench.host_speed.<workload>; dividing a time by it gives back the raw
// measurement.
//
// The service workloads are not calibrated: their jobs spin for a fixed
// wall-clock budget per granule, so host speed reaches only their small
// fixed costs.

// calibNominal is the median time of one sample, two passes of the kernel,
// on the reference host with quiet neighbours.
const calibNominal = 10 * time.Millisecond

// stamps is a priority queue of boxed timestamps, as an event engine's
// pending-event list is.
type stamps []int64

func (h stamps) Len() int           { return len(h) }
func (h stamps) Less(i, j int) bool { return h[i] < h[j] }
func (h stamps) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stamps) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *stamps) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibKernel is a miniature event engine with fixed inputs: 40 000 pushes
// of boxed timestamps onto a growing binary heap, a pop after every fourth,
// and a fresh 64 KiB buffer every thousand events. It mixes what the two
// workloads mix — unpredictable branches over a cache-resident array, small
// and large allocations — and over twenty minutes of this host's drift its
// median tracked both workloads' round times with correlation 0.95, where a
// register-only loop moved a fifth as much as they did.
func calibKernel() uint64 {
	h := &stamps{}
	s := uint64(999)
	var bufs [][]int64
	for i := 0; i < 40_000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		heap.Push(h, int64(s>>20))
		if i%4 == 3 {
			heap.Pop(h)
		}
		if i%1000 == 0 {
			bufs = append(bufs, make([]int64, 8192))
		}
	}
	return uint64((*h)[0]) + uint64(len(bufs))
}

// A calibrator collects one window's kernel times. The kernel runs on the
// calling goroutine alone, for exec-fine too: run on as many goroutines as
// exec-fine has workers it slows far more than the executive does when a
// neighbour takes a core, and over-corrects.
type calibrator struct {
	samples   []float64     // ms, one per call of sample
	spent     time.Duration // total time in the kernel, to take out of the window
	perSample uint64        // heap objects one sample allocates, counted on the first
	sum       uint64        // keeps the kernel's results live
}

// sample times two passes of the kernel.
func (c *calibrator) sample() {
	var m0, m1 runtime.MemStats
	first := len(c.samples) == 0
	if first {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	c.sum += calibKernel() + calibKernel()
	d := time.Since(t0)
	if first {
		runtime.ReadMemStats(&m1)
		c.perSample = m1.Mallocs - m0.Mallocs
	}
	c.samples = append(c.samples, ms(d))
	c.spent += d
}

// mallocs is how many heap objects the kernel allocated in this window, to
// take out of allocs_per_job; the kernel's inputs are fixed, so every sample
// allocates what the first did.
func (c *calibrator) mallocs() uint64 { return c.perSample * uint64(len(c.samples)) }

// speed is the host's speed in this window relative to the reference: above
// 1 it ran the kernel faster than nominal.
func (c *calibrator) speed() float64 {
	return ms(calibNominal) / median(c.samples)
}

// report sets a closed-loop window's timing metrics at reference speed.
// lat holds one raw sample per round (ms); jobs and granules completed in
// elapsed, which still includes the kernel's own time.
func (c *calibrator) report(res *result, workload string, lat []float64, jobs, granules float64, elapsed time.Duration) {
	speed := c.speed()
	busy := (elapsed - c.spent).Seconds()
	fmt.Fprintf(os.Stderr, "  host speed %.4f: kernel median %.3f ms (n=%d) against %v nominal; raw p50 %.4f ms, raw %.4f jobs/s\n",
		speed, median(c.samples), len(c.samples), calibNominal, median(lat), jobs/busy)
	for i := range lat {
		lat[i] *= speed
	}
	res.pct("job_latency_p50_ms", lat, 50)
	res.pct("job_latency_p90_ms", lat, 90)
	res.e2e["jobs_per_s"] = jobs / busy / speed
	res.e2e["granules_per_s"] = granules / busy / speed
	res.layer["bench.host_speed."+workload] = speed
}
