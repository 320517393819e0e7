package sim

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/casper"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The golden determinism suite pins the engine's complete observable
// output — Result / MultiResult fields, per-phase traces, scheduler
// statistics, timeline totals, and the full Observer snapshot stream — to
// fingerprints. Any divergence, down to a single snapshot firing one
// event earlier, changes the fingerprint and fails the suite: a
// performance change to the engine must be a pure performance change.
// The RunMulti lines date from before the PR 6 hot-path rewrite; the Run
// lines were regenerated once, when Run became the one-job run of the
// RunMulti engine (PR 15), to that engine's pricing.
//
// Regenerate with `go test ./internal/sim -run TestGolden -update` ONLY
// when an intentional semantic change is being made, and say so in the
// commit.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current engine")

const goldenFile = "testdata/golden.txt"

// goldenHasher accumulates a canonical serialization of run output.
type goldenHasher struct {
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: fnv.New64a()} }

func (g *goldenHasher) ints(vs ...int64) {
	for _, v := range vs {
		fmt.Fprintf(g.h, "%d,", v)
	}
}

// floats hashes exact bit patterns, not formatted decimals: two runs are
// bit-identical only if every derived ratio is too.
func (g *goldenHasher) floats(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(g.h, "%x,", math.Float64bits(v))
	}
}

func (g *goldenHasher) str(s string) { fmt.Fprintf(g.h, "%s;", s) }

func (g *goldenHasher) stats(st core.Stats) {
	g.ints(st.Dispatches, st.Splits, st.Merges, st.Completions,
		st.EnableTouches, st.TableBuilds, st.TableEntries, st.Releases,
		st.Elevations, st.DeferredItems, st.CatchUps,
		int64(st.DispatchCost), int64(st.SplitCost), int64(st.CompleteCost),
		int64(st.TableCost), int64(st.ElevateCost), int64(st.DeferredCost),
		int64(st.SerialCost))
}

func (g *goldenHasher) snapshots(sns []Snapshot) {
	g.ints(int64(len(sns)))
	for _, sn := range sns {
		g.ints(sn.VirtualTime, sn.Tasks, sn.ComputeUnits, sn.MgmtUnits,
			sn.IdleUnits, int64(sn.Batch), int64(sn.Jobs))
		g.floats(sn.Utilization, sn.OverheadShare)
		if sn.Final {
			g.str("final")
		}
	}
}

func (g *goldenHasher) result(res *Result) {
	g.ints(res.Makespan, res.ComputeUnits, res.MgmtUnits, res.SerialUnits,
		res.IdleUnits, int64(res.Workers), int64(res.Procs),
		int64(res.Batch), int64(res.BatchChanges))
	g.floats(res.Utilization, res.WorkerUtilization, res.MgmtRatio)
	g.stats(res.Sched)
	for _, pt := range res.Phases {
		g.str(pt.Name)
		g.ints(pt.Start, pt.End, pt.RundownStart, pt.IdleUnits,
			pt.Dispatched, pt.OverlapUnits)
	}
}

// timeline hashes a one-job run's utilization timeline, derived from its
// trace at the bucket width rundownsim draws it with: busy and management
// totals, horizon, bucket width and per-processor busy time.
func (g *goldenHasher) timeline(res *Result, prog *core.Program, tr *trace.Trace) {
	tl := tr.Timeline(res.Procs, (int64(prog.TotalCost())/int64(res.Workers)+1)/200)
	g.ints(tl.BusyTotal(), res.MgmtUnits, tl.End(), tl.BucketWidth())
	g.ints(busyByProc(tr, res.Procs)...)
}

func (g *goldenHasher) multiResult(res *MultiResult) {
	g.ints(res.Makespan, res.ComputeUnits, res.MgmtUnits, res.IdleUnits,
		res.BackfillUnits, int64(res.Workers), int64(res.Procs))
	g.floats(res.Utilization)
	for _, j := range res.Jobs {
		g.str(j.Name)
		g.ints(j.Makespan, j.ComputeUnits, j.BackfillUnits, int64(j.HomeWorkers))
		g.stats(j.Sched)
	}
}

// goldenFixture is one pinned configuration: the jobs, the machine, and
// whether the run goes through Run (one job, fingerprinting the Result
// and the timeline of its trace) or RunMulti.
type goldenFixture struct {
	name   string
	jobs   func(t *testing.T) []JobSpec
	cfg    Config
	single bool
}

func goldenChain(t *testing.T, phases, granules int, seed uint64) *core.Program {
	t.Helper()
	prog, err := workload.Chain(enable.Identity, phases, granules,
		workload.UniformCost(100, 400, seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func goldenCasper(t *testing.T, seed uint64) *core.Program {
	t.Helper()
	prog, err := workload.CasperProgram(workload.CasperConfig{
		GranulesPerLine: 3, Cycles: 1,
		Cost:       workload.UniformCost(100, 400, seed),
		SerialCost: 100, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func goldenCheckerboard(t *testing.T) *core.Program {
	t.Helper()
	g, err := casper.NewGrid(48, 1.3, casper.HotEdgeBoundary(48))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := g.SORProgram(2, true)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func goldenOpt(grain int) core.Options {
	return core.Options{Grain: grain, Overlap: true, Costs: core.DefaultCosts()}
}

// singleFixture is a Run fixture.
func singleFixture(name string, build func(t *testing.T) *core.Program,
	opt core.Options, cfg Config) goldenFixture {
	return goldenFixture{name: name, cfg: cfg, single: true,
		jobs: func(t *testing.T) []JobSpec { return []JobSpec{{Prog: build(t), Opt: opt}} }}
}

// multiFixture is a RunMulti fixture.
func multiFixture(name string, build func(t *testing.T) []JobSpec, cfg Config) goldenFixture {
	return goldenFixture{name: name, cfg: cfg, jobs: build}
}

// run executes the fixture with an observer attached and fingerprints
// everything; it returns the headline scalars for the readable part of
// the golden line, and the fingerprint.
func (fx goldenFixture) run(t *testing.T) (headline string, hash uint64) {
	var sns []Snapshot
	cfg := fx.cfg
	cfg.Observer = func(sn Snapshot) { sns = append(sns, sn) }
	jobs := fx.jobs(t)
	g := newGoldenHasher()
	var makespan, compute, mgmt, idle int64
	if fx.single {
		rec := trace.NewRecorder(trace.Meta{}, cfg.Procs)
		cfg.Trace = rec
		res, err := Run(jobs[0].Prog, jobs[0].Opt, cfg)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		g.result(res)
		g.timeline(res, jobs[0].Prog, rec.Take())
		makespan, compute, mgmt, idle = res.Makespan, res.ComputeUnits, res.MgmtUnits, res.IdleUnits
	} else {
		res, err := RunMulti(jobs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		g.multiResult(res)
		makespan, compute, mgmt, idle = res.Makespan, res.ComputeUnits, res.MgmtUnits, res.IdleUnits
	}
	g.snapshots(sns)
	return fmt.Sprintf("makespan=%d compute=%d mgmt=%d idle=%d snaps=%d",
		makespan, compute, mgmt, idle, len(sns)), g.h.Sum64()
}

func goldenFixtures() []goldenFixture {
	var fx []goldenFixture

	// Run: every management model on the fine identity chain at two
	// machine sizes, covering the adaptive shard path (fixed and tuned
	// batch) and the async ready-buffer protocol.
	models := []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async}
	for _, m := range models {
		for _, procs := range []int{8, 48} {
			cfg := Config{Procs: procs, Mgmt: m}
			fx = append(fx, singleFixture(
				fmt.Sprintf("chain/%v/p%d", m, procs),
				func(t *testing.T) *core.Program { return goldenChain(t, 4, 1024, 1986) },
				goldenOpt(4), cfg))
		}
	}
	// Adaptive with the online batch controller (tuner path).
	adaptOpt := goldenOpt(2)
	adaptOpt.AdaptiveBatch = true
	fx = append(fx, singleFixture("chain/adaptive-tuned/p16",
		func(t *testing.T) *core.Program { return goldenChain(t, 4, 2048, 7) },
		adaptOpt, Config{Procs: 16, Mgmt: Adaptive, Batch: 8}))
	// Async with explicit buffer knobs.
	fx = append(fx, singleFixture("chain/async-knobs/p16",
		func(t *testing.T) *core.Program { return goldenChain(t, 4, 2048, 7) },
		goldenOpt(2), Config{Procs: 16, Mgmt: Async, ReadyCap: 24, LowWater: 3}))

	// CASPER census profile (serial actions, every mapping kind) and the
	// checkerboard SOR grid (seam mapping) under the paper's two models.
	for _, m := range []MgmtModel{StealsWorker, Sharded} {
		cfg := Config{Procs: 32, Mgmt: m}
		fx = append(fx, singleFixture(fmt.Sprintf("casper/%v/p32", m),
			func(t *testing.T) *core.Program { return goldenCasper(t, 11) },
			goldenOpt(2), cfg))
	}
	fx = append(fx, singleFixture("checkerboard/steals-worker/p16",
		goldenCheckerboard, goldenOpt(16), Config{Procs: 16, Mgmt: StealsWorker}))

	// Multi-program: the three models the seed engine supported, at two
	// job counts, with mixed priorities and weights so the backfill
	// order, deficit replenishment, and rebalance paths are all pinned.
	twoJobs := func(t *testing.T) []JobSpec {
		return []JobSpec{
			{Name: "a", Prog: goldenChain(t, 4, 768, 1), Opt: goldenOpt(4), Weight: 2},
			{Name: "b", Prog: goldenChain(t, 3, 384, 2), Opt: goldenOpt(2), Priority: 1},
		}
	}
	fiveJobs := func(t *testing.T) []JobSpec {
		specs := make([]JobSpec, 5)
		for i := range specs {
			specs[i] = JobSpec{
				Name: fmt.Sprintf("j%d", i),
				Prog: goldenChain(t, 3, 256+64*i, uint64(10+i)),
				Opt:  goldenOpt(2 + i%3),
				// Mixed priorities and weights: exercise the sorted
				// backfill order and largest-remainder home shares.
				Priority: i % 2,
				Weight:   1 + i%3,
			}
		}
		return specs
	}
	for _, m := range []MgmtModel{StealsWorker, Dedicated, Sharded} {
		fx = append(fx, multiFixture(fmt.Sprintf("multi2/%v/p8", m), twoJobs, Config{Procs: 8, Mgmt: m}))
		fx = append(fx, multiFixture(fmt.Sprintf("multi5/%v/p32", m), fiveJobs, Config{Procs: 32, Mgmt: m}))
	}
	// Mixed casper+chain tenancy: serial actions inside a shared pool
	// (the openAt gate) pinned too.
	fx = append(fx, multiFixture("multi-casper/steals-worker/p16",
		func(t *testing.T) []JobSpec {
			return []JobSpec{
				{Name: "casper", Prog: goldenCasper(t, 3), Opt: goldenOpt(2)},
				{Name: "chain", Prog: goldenChain(t, 3, 512, 4), Opt: goldenOpt(4), Priority: 1},
			}
		}, Config{Procs: 16, Mgmt: StealsWorker}))

	// The shapes the sim-scale benchmark workload runs and the fixtures
	// above do not: its eight mixed co-tenants at P=64 under every
	// management model, and its 32-job / P=1024 / grain-4 sharded run
	// (scaled down to 64 Ki granules so the suite stays fast).
	for _, m := range models {
		fx = append(fx, multiFixture(fmt.Sprintf("scale8/%v/p64", m), scaleMixedJobs, Config{Procs: 64, Mgmt: m}))
	}
	fx = append(fx, multiFixture("scale32/sharded/p1024", scaleManyJobs, Config{Procs: 1024, Mgmt: Sharded}))

	return fx
}

// scaleTenants builds n co-tenant unit-cost identity chains, job i with
// priority i%prios and weight 1+i%weights.
func scaleTenants(t *testing.T, n, phases, grain, prios, weights int, granules func(i int) int) []JobSpec {
	t.Helper()
	specs := make([]JobSpec, n)
	for i := range specs {
		prog, err := workload.Chain(enable.Identity, phases, granules(i), workload.UnitCost(), uint64(1+i))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = JobSpec{
			Name: fmt.Sprintf("job%d", i), Prog: prog, Opt: goldenOpt(grain),
			Priority: i % prios, Weight: 1 + i%weights,
		}
	}
	return specs
}

// scaleMixedJobs is sim-scale's "mixed" tenancy: eight chains of growing
// size with alternating priorities and three weights.
func scaleMixedJobs(t *testing.T) []JobSpec {
	return scaleTenants(t, 8, 3, 8, 2, 3, func(i int) int { return 2048 + 512*i })
}

// scaleManyJobs is sim-scale's "million" tenancy at one sixteenth of the
// granules: 32 four-phase chains, three priorities, two weights.
func scaleManyJobs(t *testing.T) []JobSpec {
	return scaleTenants(t, 32, 4, 4, 3, 2, func(int) int { return 512 })
}

// TestGoldenDeterminism compares every fixture's fingerprint against
// testdata/golden.txt (or rewrites the file under -update).
func TestGoldenDeterminism(t *testing.T) {
	fixtures := goldenFixtures()
	got := make(map[string]string, len(fixtures))
	var order []string
	for _, fx := range fixtures {
		head, hash := fx.run(t)
		got[fx.name] = fmt.Sprintf("%s %016x %s", fx.name, hash, head)
		order = append(order, fx.name)
	}
	if *updateGolden {
		sort.Strings(order)
		var b strings.Builder
		b.WriteString("# Golden engine fingerprints: <fixture> <fnv64a> <headline scalars>\n")
		b.WriteString("# Regenerate with: go test ./internal/sim -run TestGolden -update\n")
		for _, name := range order {
			b.WriteString(got[name])
			b.WriteString("\n")
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(order), goldenFile)
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		w, ok := want[fx.name]
		if !ok {
			t.Errorf("fixture %q not in golden file (run -update?)", fx.name)
			continue
		}
		if got[fx.name] != w {
			t.Errorf("fixture %q diverged from the pinned engine:\n  got  %s\n  want %s",
				fx.name, got[fx.name], w)
		}
		delete(want, fx.name)
	}
	for name := range want {
		t.Errorf("golden file has stale fixture %q (run -update?)", name)
	}
}

// identicalPhasesFixture is six identical barrier phases of costly
// granules, each with a long rundown: the run
// `rundownsim -procs 32 -phases 6 -granules 4096 -cost-lo 20 -cost-hi 2000
// -grain 64`. It is not a golden fixture.
func identicalPhasesFixture() goldenFixture {
	return singleFixture("identical-phases/steals-worker/p32",
		func(t *testing.T) *core.Program {
			t.Helper()
			prog, err := workload.Chain(enable.Identity, 6, 4096, workload.UniformCost(20, 2000, 1986), 1986)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		},
		core.Options{Grain: 64, Costs: core.DefaultCosts()}, Config{Procs: 32, Mgmt: StealsWorker})
}

// runPhases runs fx and returns its result with the idle time of parks
// that began with no home job, which no phase is booked.
func (fx goldenFixture) runPhases(t *testing.T) (*MultiResult, int64) {
	t.Helper()
	s, err := newMstate(context.Background(), fx.jobs(t), fx.cfg)
	if err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	res, err := s.execute()
	if err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	return res, s.homeless
}

// TestPhaseTraceConservation checks the per-job phase traces of every
// golden fixture, Run and RunMulti alike, and of the identical-phases run:
// every dispatch is counted in exactly one phase, the run's idle time is
// booked to the phases, but for the parks that began with no home job, and
// a phase's rundown begins inside its window. (A one-job run has such parks
// too: a worker that asks between its job's last completion event and the
// end of that completion's processing finds the job already retired.)
func TestPhaseTraceConservation(t *testing.T) {
	for _, fx := range append(goldenFixtures(), identicalPhasesFixture()) {
		res, homeless := fx.runPhases(t)
		idle := homeless
		for _, j := range res.Jobs {
			var dispatched int64
			for pi, pt := range j.Phases {
				dispatched += pt.Dispatched
				idle += pt.IdleUnits
				if pt.RundownStart != -1 && (pt.RundownStart < pt.Start || pt.RundownStart > pt.End) {
					t.Errorf("%s: job %s phase %d: rundown starts at %d outside the window [%d,%d]",
						fx.name, j.Name, pi, pt.RundownStart, pt.Start, pt.End)
				}
			}
			if dispatched != j.Sched.Dispatches {
				t.Errorf("%s: job %s: phases count %d dispatches, scheduler %d",
					fx.name, j.Name, dispatched, j.Sched.Dispatches)
			}
		}
		if idle != res.IdleUnits {
			t.Errorf("%s: phases and homeless parks account %d idle units, the run %d", fx.name, idle, res.IdleUnits)
		}
	}
}

// TestPhaseIdleIdenticalPhases: six identical barrier phases each book the
// same rundown idle — the idle of the parks that began while the phase was
// current. Every phase but the last books exactly the same; the last one's
// parks close at the makespan, not one management step into the next
// phase, so it books less by under one unit per worker.
func TestPhaseIdleIdenticalPhases(t *testing.T) {
	res, _ := identicalPhasesFixture().runPhases(t)
	phases := res.Jobs[0].Phases
	first, last := phases[0].IdleUnits, phases[len(phases)-1].IdleUnits
	if first <= 0 {
		t.Fatalf("phase 0 books %d idle units, want its rundown", first)
	}
	for pi, pt := range phases[:len(phases)-1] {
		if pt.IdleUnits != first {
			t.Errorf("phase %d books %d idle units, phase 0 %d", pi, pt.IdleUnits, first)
		}
	}
	if d := first - last; d < 0 || d >= int64(res.Workers) {
		t.Errorf("the last phase books %d idle units, the others %d", last, first)
	}
}
