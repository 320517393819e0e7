package main

import (
	"sort"
	"time"

	"repro/internal/service"
)

// rng is splitmix64: the benchmark's only source of randomness, so a seed
// gives the same inputs on every Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// arrivals is an open-loop schedule: n send times in [0, window), sorted.
// n uniform points are a Poisson process conditioned on its count, so the
// gaps are exponential (bursts and lulls, as independent tenants make)
// while the offered rate is exactly n/window on every seed — otherwise
// the Poisson count alone would move jobs_per_s by 1/sqrt(n) between
// seeds.
func arrivals(r *rng, n int, window time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.float() * float64(window))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// jobSpec is one generated job: the wire spec plus what the benchmark
// needs to check the answer.
type jobSpec struct {
	spec     service.JobSpec
	granules int // total granules the program must execute
	minTasks int // ceil(granules/grain) summed over phases: a lower bound
}

func chainSpec(mapping string, phases, granules, workUS, grain int, seed uint64) jobSpec {
	perPhase := (granules + grain - 1) / grain
	return jobSpec{
		spec: service.JobSpec{
			Workload: service.WorkloadSpec{
				Kind: "chain", Mapping: mapping, Phases: phases, Granules: granules,
				WorkMicros: workUS, Seed: seed,
			},
			Grain: grain, Class: service.ClassBatch,
		},
		granules: phases * granules,
		minTasks: phases * perPhase,
	}
}

// casperGranules is the census program's size per cycle at the service's
// fixed 4 granules per source line (1188 lines).
const casperGranules = 1188 * 4

func casperSpec(cycles, workUS, grain int, seed uint64) jobSpec {
	return jobSpec{
		spec: service.JobSpec{
			Workload: service.WorkloadSpec{Kind: "casper", Cycles: cycles, WorkMicros: workUS, Seed: seed},
			Grain:    grain, Class: service.ClassBatch,
		},
		granules: cycles * casperGranules,
		minTasks: cycles * 22, // at least one task per phase
	}
}

// deck is a fixed multiset of job shapes dealt in seeded order. Every
// seed therefore offers the same mix of sizes — only the order, the
// arrival times and each program's own seed (cost draws, selection maps)
// change — which keeps the medians comparable across seeds without
// making the runs identical.
type deck struct {
	shapes []func(seed uint64) jobSpec
	r      *rng
	order  []int
	pos    int
}

func newDeck(r *rng, shapes []func(uint64) jobSpec) *deck {
	d := &deck{shapes: shapes, r: r, order: make([]int, len(shapes))}
	for i := range d.order {
		d.order[i] = i
	}
	d.pos = len(d.order) // force a shuffle on first deal
	return d
}

func (d *deck) deal() jobSpec {
	if d.pos == len(d.order) {
		d.r.shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	s := d.shapes[d.order[d.pos]](d.r.next())
	d.pos++
	return s
}

// smallShapes is svc-small's mix: chains over the five mappings the
// service accepts, 2–6 phases × 128–1024 granules at 5–20 µs of spin per
// granule, keeping those that occupy the two-worker pool for 5–15 ms.
// Short enough that the per-job fixed costs (decode, validate, program
// build, scheduler construction, submit, watcher, SSE final) are a
// visible share of the latency.
func smallShapes() []func(uint64) jobSpec {
	mappings := []string{"identity", "universal", "seam", "reverse-indirect", "null"}
	var out []func(uint64) jobSpec
	for _, phases := range []int{2, 3, 4, 5, 6} {
		for _, granules := range []int{128, 256, 384, 512, 768, 1024} {
			for _, work := range []int{5, 10, 15, 20} {
				poolUS := phases * granules * work / 2
				if poolUS < 5000 || poolUS > 15000 {
					continue
				}
				mapping := mappings[len(out)%len(mappings)]
				grain := []int{16, 32, 64}[len(out)%3]
				out = append(out, func(seed uint64) jobSpec {
					return chainSpec(mapping, phases, granules, work, grain, seed)
				})
			}
		}
	}
	return out
}

// cotenantShapes is svc-cotenant's mix: compute-dominated jobs long
// enough (≈0.1–0.3 s with the pool shared) that two of them always
// overlap, so one job's rundown is the other's backfill opportunity.
func cotenantShapes() []func(uint64) jobSpec {
	var out []func(uint64) jobSpec
	for _, cycles := range []int{1, 2} {
		for _, work := range []int{20, 25, 30} {
			out = append(out, func(seed uint64) jobSpec { return casperSpec(cycles, work, 32, seed) })
		}
	}
	for _, mapping := range []string{"identity", "seam"} {
		for _, granules := range []int{512, 768, 1024} {
			out = append(out, func(seed uint64) jobSpec { return chainSpec(mapping, 8, granules, 25, 32, seed) })
		}
	}
	return out
}
