// Command bench is the repository's benchmark: four workloads that
// between them load every layer from POST /v1/jobs → SSE final down to
// the event engine, measured end to end with tracing off and, in a
// separate traced run, layer by layer. bench/README.md says what each
// name means and why each workload exists; BENCHMARK.json at the
// repository root is the machine-readable contract.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"repro/internal/stats"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// runCfg is what every workload is given: the seed its inputs derive
// from and the machine size everything is scaled to.
type runCfg struct {
	seed  uint64
	nproc int // pool and executive workers, client connections, GOMAXPROCS
}

// A workload builds instances; set-up (server or runner start, program
// builds, warm-up) is everything setup does, and is what setup_s times.
type workload struct {
	name  string
	setup func(cfg runCfg) (instance, error)
	// probe is the share of -seconds this workload's window gets in a
	// traced run of some other workload, sized so its medians still have
	// ten samples either side.
	probe float64
}

// An instance is one warmed-up system under test. Measure may be called
// more than once; rec is nil in the untraced run.
type instance interface {
	Measure(window time.Duration, rec *recorder) (*result, error)
	Close() error
}

var workloads = []workload{
	{"svc-small", func(c runCfg) (instance, error) { return setupSvc("svc-small", c) }, 0.10},
	{"svc-cotenant", func(c runCfg) (instance, error) { return setupSvc("svc-cotenant", c) }, 0.20},
	{"exec-fine", setupExecFine, 0.10},
	{"sim-scale", setupSimScale, 0.10},
}

// setupReps is how many times an untraced run sets the system up; the
// median is setup_s and the last instance is the one measured.
const setupReps = 5

// result is what one measured window produced.
type result struct {
	attempted, failed int
	e2e, layer        map[string]float64
	errs              []error // first few failures, for the operator
	refused           []error // end-to-end percentiles the sample-count guard refused
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// pct sets an end-to-end percentile. The median must be sound: with
// fewer than ten samples either side of it the metric is left unset,
// which fails an untraced run when its metrics are checked for
// completeness (a traced run's short windows do not need it). A p90 whose
// tail the guard finds thin is reported with a warning instead: on a
// shared host a slow spell can halve the rounds in a window, and a noisy
// p90 is worth more to a ten-run median than a missing run.
func (r *result) pct(name string, xs []float64, p float64) {
	if _, err := percentile(xs, 50); err != nil {
		r.refused = append(r.refused, fmt.Errorf("%s: %w", name, err))
		return
	}
	fmt.Fprintf(os.Stderr, "  %-28s n=%d\n", name, len(xs))
	r.e2e[name] = lenient(name, xs, p)
}

// blockSize is the fewest samples pctBlocks puts in a block: enough to
// leave the ten samples beyond a p90 that the guard asks for, with room.
const blockSize = 150

// pctBlocks sets an end-to-end percentile of an open loop's latencies, xs
// in arrival order, as the median over up to ten consecutive blocks of each
// block's percentile. One stall on the host leaves a backlog, and the jobs
// queued behind it — a few percent of a window's jobs, all in one stretch —
// are enough to move the whole window's p90 by a quarter; they move one
// block's, and the median over blocks leaves that one out.
func (r *result) pctBlocks(name string, xs []float64, p float64) {
	blocks := min(10, len(xs)/blockSize)
	if blocks < 2 {
		r.pct(name, xs, p)
		return
	}
	per := make([]float64, blocks)
	for b := range per {
		per[b] = stats.Percentile(xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks], p)
	}
	fmt.Fprintf(os.Stderr, "  %-28s n=%d in %d blocks; over the whole window %.4f\n", name, len(xs), blocks, stats.Percentile(xs, p))
	r.e2e[name] = median(per)
}

// lenient is percentile with a refusal turned into a warning.
func lenient(name string, xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "  warning: %s: %v; reporting it anyway\n", name, err)
		v = stats.Percentile(xs, p)
	}
	return v
}

// layerPct sets a per-layer percentile. Per-layer numbers carry no bound
// and a traced window is short, so a percentile the guard would refuse is
// still reported, with a warning that says how thin it is.
func (r *result) layerPct(name string, xs []float64, p float64) {
	r.layer[name] = lenient(name, xs, p)
}

// merge folds another window's counts and per-layer numbers into r.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	for k, v := range o.layer {
		r.layer[k] = v
	}
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func facts(cfg runCfg) hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", Seed: cfg.seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runUntraced is the end-to-end run of one workload: set up setupReps
// times, measure the last instance for the whole window, shut down.
func runUntraced(w workload, cfg runCfg, window time.Duration) (*result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	res, err := inst.Measure(window, nil)
	if cerr := inst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// A calibrated workload's set-up is the same kind of work as its window
	// and ran just before it, so it is reported at the window's host speed.
	res.e2e["setup_s"] = median(setups)
	if speed, ok := res.layer["bench.host_speed."+w.name]; ok {
		fmt.Fprintf(os.Stderr, "  raw setup_s %.6f s\n", res.e2e["setup_s"])
		res.e2e["setup_s"] *= speed
	}
	for _, d := range endToEnd {
		if _, ok := res.e2e[d.name]; !ok {
			return nil, fmt.Errorf("%s: %s was not measured: %w", w.name, d.name, errors.Join(res.refused...))
		}
	}
	return res, nil
}

// runTraced is the per-layer run for one selected workload. Every layer
// metric has to come out of every traced run, so all four workloads run
// with spans on — the selected one for longer, and once more without
// spans so the cost of tracing itself is known — followed by the layer
// micro-series. Spans are written out when the run ends.
func runTraced(selected string, cfg runCfg, seconds float64, outDir string) (*result, error) {
	rec := newRecorder()
	total := newResult()
	for _, w := range workloads {
		runtime.GC()
		inst, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		share := w.probe
		var plain *result
		if w.name == selected {
			share = 0.25
			if plain, err = inst.Measure(window(seconds*0.15), nil); err != nil {
				inst.Close()
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			total.merge(plain)
		}
		rec.scope = w.name
		res, err := inst.Measure(window(seconds*share), rec)
		if cerr := inst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		total.merge(res)
		if plain != nil {
			base := plain.e2e["jobs_per_s"]
			total.layer["bench.trace_overhead_pct"] = 100 * stats.Ratio(base-res.e2e["jobs_per_s"], base)
		}
	}
	runtime.GC()
	rec.scope = "layers"
	if err := layerSeries(cfg, rec, total); err != nil {
		return nil, fmt.Errorf("layer series: %w", err)
	}
	total.layer["failed_share"] = stats.Ratio(float64(total.failed), float64(total.attempted))
	path, err := rec.dump(outDir, fmt.Sprintf("spans-%s-seed%d.json", selected, cfg.seed), facts(cfg))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	for _, d := range perLayer {
		if _, ok := total.layer[d.name]; !ok {
			return nil, fmt.Errorf("%s was not measured", d.name)
		}
	}
	return total, nil
}

func window(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// report prints one run for the operator on stderr and, as the last line
// of stdout, the one JSON object the driver reads.
func report(name string, defs []def, values map[string]float64, res *result) {
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", name, res.attempted, res.failed)
	for _, err := range res.errs {
		fmt.Fprintf(os.Stderr, "  failure: %v\n", err)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.name] = mv{values[d.name], d.unit}
		fmt.Fprintf(os.Stderr, "  %-44s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	fmt.Printf("%s\n", line)
}

// selfcheck runs the untraced set twice in one invocation, the second
// time in reverse order, and fails if the benchmark disagrees with
// itself by more than it would let a change get away with.
func selfcheck(cfg runCfg, seconds float64) error {
	sets := [2]map[string]*result{{}, {}}
	for pass := range sets {
		order := slices.Clone(workloads)
		if pass == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := runUntraced(w, cfg, window(seconds))
			if err != nil {
				return err
			}
			report(w.name, endToEnd, res.e2e, res)
			sets[pass][w.name] = res
		}
	}
	var bad []error
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if a.failed+b.failed > 0 {
			bad = append(bad, fmt.Errorf("%s: %d operations failed", w.name, a.failed+b.failed))
		}
		for _, d := range endToEnd {
			x, y := a.e2e[d.name], b.e2e[d.name]
			gap := math.Abs(y-x) / x
			switch {
			case slices.Contains(exact[w.name], d.name) && x != y:
				bad = append(bad, fmt.Errorf("%s %s: %v then %v, must repeat exactly", w.name, d.name, x, y))
			case gap > d.bound:
				bad = append(bad, fmt.Errorf("%s %s: %v then %v differ by %.1f%%, bound %.0f%%", w.name, d.name, x, y, 100*gap, 100*d.bound))
			}
		}
	}
	return errors.Join(bad...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: svc-small, svc-cotenant, exec-fine or sim-scale (default: all four, untraced then traced)")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 30, "measured window per workload, seconds")
		traced  = flag.Int("trace", 0, "1 = the traced run (per-layer metrics, spans written to -out); 0 = end-to-end metrics, tracing off")
		check   = flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end pair differs by more than its bound")
		smoke   = flag.Bool("smoke", false, "short windows and no sample-count guard: checks that every name comes out, not what it is worth")
		outDir  = flag.String("out", "out", "directory for span dumps")
	)
	flag.Parse()
	cfg := runCfg{seed: *seed, nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.nproc)
	if *smoke {
		minBeyond = 0
		*seconds = min(*seconds, 2)
	}
	fmt.Fprintf(os.Stderr, "host: %+v\n", facts(cfg))

	if err := run(*name, cfg, *seconds, *traced == 1, *check, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, cfg runCfg, seconds float64, traced, check bool, outDir string) error {
	if check {
		return selfcheck(cfg, seconds)
	}
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q (valid workloads: %v)", name, workloadNames)
		}
	}
	for _, w := range selected {
		// With no workload named, each one gets both runs.
		if !traced || name == "" {
			res, err := runUntraced(w, cfg, window(seconds))
			if err != nil {
				return err
			}
			report(w.name, endToEnd, res.e2e, res)
		}
		if traced || name == "" {
			res, err := runTraced(w.name, cfg, seconds, outDir)
			if err != nil {
				return err
			}
			report(w.name+" (traced)", perLayer, res.layer, res)
		}
	}
	return nil
}
