package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The metrics golden suite pins the telemetry a virtual run records: for
// every management model (single- and multi-program), the same seed must
// produce a bit-identical metric dump — virtual-unit times included —
// because the simulator observes metrics from its event loop on the
// virtual clock. Each fixture runs twice and requires the two JSON dumps
// to be byte-equal before comparing the fingerprint against
// testdata/metrics_golden.txt, so a nondeterministic recording fails
// even with a stale golden file. Regenerate with
// `go test ./internal/sim -run TestGoldenMetrics -update` ONLY for an
// intentional semantic change, and say so in the commit.
const metricsGoldenFile = "testdata/metrics_golden.txt"

// metricsFixture runs one configuration against a fresh registry and
// returns the dump's canonical JSON.
type metricsFixture struct {
	name string
	run  func(t *testing.T, met *telemetry.Set)
}

func (fx metricsFixture) dump(t *testing.T, procs int) []byte {
	t.Helper()
	met := telemetry.NewSet(telemetry.NewRegistry(procs, "virtual"))
	fx.run(t, met)
	buf, err := json.Marshal(met.Registry.Dump())
	if err != nil {
		t.Fatalf("%s: marshal dump: %v", fx.name, err)
	}
	return buf
}

func metricsSingleFixture(name string, phases, granules int, seed uint64,
	opt core.Options, cfg Config) metricsFixture {
	return metricsFixture{name: name, run: func(t *testing.T, met *telemetry.Set) {
		c := cfg
		c.Metrics = met
		if _, err := Run(goldenChain(t, phases, granules, seed), opt, c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}}
}

func metricsMultiFixture(name string, cfg Config, build func(t *testing.T) []JobSpec) metricsFixture {
	return metricsFixture{name: name, run: func(t *testing.T, met *telemetry.Set) {
		c := cfg
		c.Metrics = met
		if _, err := RunMulti(build(t), c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}}
}

func metricsFixtures() []metricsFixture {
	var fx []metricsFixture
	// Every management model on the identity chain: the five single-run
	// recording paths (dispatch/compute accounting, dispatch-wait at the
	// ask-serving sites, ready-buffer occupancy under Async, retunes and
	// batch-size under Adaptive).
	for _, m := range []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async} {
		fx = append(fx, metricsSingleFixture(
			fmt.Sprintf("chain/%v/p8", m), 4, 1024, 1986,
			goldenOpt(4), Config{Procs: 8, Mgmt: m}))
	}
	// Adaptive with the online controller: retune counts pinned.
	tuned := goldenOpt(2)
	tuned.AdaptiveBatch = true
	fx = append(fx, metricsFixture{name: "chain/adaptive-tuned/p16",
		run: func(t *testing.T, met *telemetry.Set) {
			cfg := Config{Procs: 16, Mgmt: Adaptive, Batch: 8, Metrics: met}
			if _, err := Run(goldenChain(t, 4, 2048, 7), tuned, cfg); err != nil {
				t.Fatal(err)
			}
		}})
	// Multi-program: job lifecycle, backfill, and queue-wait recording
	// under three models; a deadlined pair pins DeadlineMargin/-Misses.
	twoJobs := func(t *testing.T) []JobSpec {
		return []JobSpec{
			{Name: "a", Prog: goldenChain(t, 4, 768, 1), Opt: goldenOpt(4), Weight: 2},
			{Name: "b", Prog: goldenChain(t, 3, 384, 2), Opt: goldenOpt(2), Priority: 1},
		}
	}
	for _, m := range []MgmtModel{StealsWorker, Sharded, Async} {
		fx = append(fx, metricsMultiFixture(
			fmt.Sprintf("multi2/%v/p8", m), Config{Procs: 8, Mgmt: m}, twoJobs))
	}
	fx = append(fx, metricsMultiFixture("multi2-deadline/steals-worker/p8",
		Config{Procs: 8, Mgmt: StealsWorker},
		func(t *testing.T) []JobSpec {
			return []JobSpec{
				// Generous budget: margin lands in the histogram.
				{Name: "ok", Prog: goldenChain(t, 3, 512, 3), Opt: goldenOpt(4), Deadline: 1 << 40},
				// One-unit budget: a deterministic miss.
				{Name: "late", Prog: goldenChain(t, 3, 512, 4), Opt: goldenOpt(4), Deadline: 1},
			}
		}))
	// sim-scale's mixed tenancy under every model (the 64-worker run folds
	// onto the suite's 8 registry shards, which the dump sums anyway).
	for _, m := range []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async} {
		fx = append(fx, metricsMultiFixture(
			fmt.Sprintf("scale8/%v/p64", m), Config{Procs: 64, Mgmt: m}, scaleMixedJobs))
	}
	return fx
}

// TestGoldenMetricsDeterminism checks run-twice bit-identity of every
// fixture's metric dump, then compares the dump fingerprints against
// testdata/metrics_golden.txt (or rewrites it under -update).
func TestGoldenMetricsDeterminism(t *testing.T) {
	fixtures := metricsFixtures()
	got := make(map[string]string, len(fixtures))
	var order []string
	for _, fx := range fixtures {
		a := fx.dump(t, 8)
		b := fx.dump(t, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("fixture %q: two identical runs dumped different metrics:\n  %s\n  %s", fx.name, a, b)
			continue
		}
		h := fnv.New64a()
		h.Write(a)
		var d telemetry.Dump
		if err := json.Unmarshal(a, &d); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		head := fmt.Sprintf("dispatches=%d compute=%d mgmt=%d",
			d.Get("rundown_dispatch_total").Value,
			d.Get("rundown_compute_time_total").Value,
			d.Get("rundown_mgmt_time_total").Value)
		got[fx.name] = fmt.Sprintf("%s %016x %s", fx.name, h.Sum64(), head)
		order = append(order, fx.name)
	}
	if t.Failed() {
		return
	}

	if *updateGolden {
		sort.Strings(order)
		var b strings.Builder
		b.WriteString("# Golden metric-dump fingerprints: <fixture> <fnv64a of dump JSON> <headline>\n")
		b.WriteString("# Regenerate with: go test ./internal/sim -run TestGoldenMetrics -update\n")
		for _, name := range order {
			b.WriteString(got[name])
			b.WriteString("\n")
		}
		if err := os.MkdirAll(filepath.Dir(metricsGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(order), metricsGoldenFile)
		return
	}

	f, err := os.Open(metricsGoldenFile)
	if err != nil {
		t.Fatalf("metrics golden file missing (run with -update to create): %v", err)
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
			t.Errorf("fixture %q not in metrics golden file (run -update?)", fx.name)
			continue
		}
		if got[fx.name] != w {
			t.Errorf("fixture %q metrics diverged:\n  got  %s\n  want %s", fx.name, got[fx.name], w)
		}
		delete(want, fx.name)
	}
	for name := range want {
		t.Errorf("metrics golden file has stale fixture %q (run -update?)", name)
	}
}
