package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestArrivalsAndSpecsFollowTheSeed(t *testing.T) {
	gen := func(seed uint64) ([]time.Duration, []string) {
		r := newRNG(seed)
		d := newDeck(r, smallShapes())
		var specs []string
		for i := 0; i < 200; i++ {
			b, err := json.Marshal(d.deal().spec)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, string(b))
		}
		return arrivals(r, 200, 4*time.Second), specs
	}
	at1, specs1 := gen(7)
	at2, specs2 := gen(7)
	if !reflect.DeepEqual(at1, at2) || !reflect.DeepEqual(specs1, specs2) {
		t.Fatal("the same seed gave different inputs")
	}
	at3, specs3 := gen(8)
	if reflect.DeepEqual(at1, at3) || reflect.DeepEqual(specs1, specs3) {
		t.Fatal("different seeds gave the same inputs")
	}
	for i := 1; i < len(at1); i++ {
		if at1[i] < at1[i-1] || at1[i] >= 4*time.Second {
			t.Fatalf("arrival %d = %v out of order or outside the window", i, at1[i])
		}
	}
}

func TestDeckDealsEveryShapeOncePerPass(t *testing.T) {
	shapes := cotenantShapes()
	d := newDeck(newRNG(3), shapes)
	for pass := 0; pass < 3; pass++ {
		seen := map[string]int{}
		for range shapes {
			w := d.deal().spec.Workload
			w.Seed = 0
			seen[fmt.Sprint(w)]++
		}
		if len(seen) != len(shapes) {
			t.Fatalf("pass %d dealt %d distinct shapes of %d", pass, len(seen), len(shapes))
		}
	}
}

// sseServer answers GET /v1/jobs/{id}/events with the given frames.
func sseServer(frames string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, frames)
	}))
}

func TestReadEventsCountsFinals(t *testing.T) {
	const snap = "event: snapshot\ndata: {\"id\":\"j1\",\"state\":\"running\"}\n\n"
	const final = "event: final\ndata: {\"id\":\"j1\",\"state\":\"done\",\"tasks\":4}\n\n"
	for _, tc := range []struct {
		frames         string
		events, finals int
	}{
		{snap + snap + final, 3, 1},
		{final, 1, 1},
		{snap, 1, 0},
		{snap + final + final, 3, 2},
	} {
		srv := sseServer(tc.frames)
		st, err := newClient(srv.URL, 1).readEvents(context.Background(), "j1")
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.events != tc.events || st.finals != tc.finals {
			t.Errorf("frames %q: %d events, %d finals; want %d, %d", tc.frames, st.events, st.finals, tc.events, tc.finals)
		}
		if tc.finals > 0 && (st.last.State != "done" || st.last.Tasks != 4 || st.at.IsZero()) {
			t.Errorf("frames %q: final payload %+v not kept", tc.frames, st.last)
		}
		if err := checkFinal(&jobSpec{granules: 8, minTasks: 1}, st); tc.finals != 1 && err == nil {
			t.Errorf("frames %q: %d finals passed the exactly-one check", tc.frames, tc.finals)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Start: at(30), End: at(60)},  // overlaps span 2: 30–40 counts once
		{ID: 4, Parent: 1, Start: at(90), End: at(120)}, // clipped to the parent's end
		{ID: 5, Parent: 2, Start: at(10), End: at(40)},  // covers its parent entirely
	}
	fillSelf(spans)
	want := []time.Duration{at(40), at(0), at(30), at(30), at(30)}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d self = %v, want %v", s.ID, s.Self, want[i])
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 90); err == nil || !strings.Contains(err.Error(), "n=99") {
		t.Errorf("p90 of 99 samples: err = %v, want a refusal naming n", err)
	}
	if v, err := percentile(xs, 50); err != nil || v != 49 {
		t.Errorf("p50 of 0..98 = %v, %v; want 49", v, err)
	}
	if v, err := percentile(append(xs, 99), 90); err != nil || v < 89 || v > 90 {
		t.Errorf("p90 of 0..99 = %v, %v", v, err)
	}
}

func TestCalibrationScalesTimesAndRates(t *testing.T) {
	if a, b := calibKernel(), calibKernel(); a != b {
		t.Fatalf("the kernel's work is not fixed: checksums %d and %d", a, b)
	}
	saved := minBeyond
	minBeyond = 0
	defer func() { minBeyond = saved }()
	// The kernel took twice its nominal time: the host ran at half speed.
	half := 2 * ms(calibNominal)
	cal := calibrator{samples: []float64{half - 1, half, half + 1}, spent: time.Second, perSample: 7}
	if got := cal.speed(); got != 0.5 {
		t.Fatalf("speed = %v, want 0.5", got)
	}
	if got := cal.mallocs(); got != 21 {
		t.Errorf("mallocs = %d, want 21", got)
	}
	res := newResult()
	cal.report(res, "exec-fine", []float64{8, 10, 12}, 100, 1000, 11*time.Second)
	want := map[string]float64{"job_latency_p50_ms": 5, "jobs_per_s": 20, "granules_per_s": 200}
	for name, w := range want {
		if got := res.e2e[name]; got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if got := res.layer["bench.host_speed.exec-fine"]; got != 0.5 {
		t.Errorf("bench.host_speed.exec-fine = %v, want 0.5", got)
	}
}

func TestBlockPercentileLeavesOutOneBacklog(t *testing.T) {
	xs := make([]float64, 10*blockSize)
	for i := range xs {
		xs[i] = 10
	}
	// One stall: a stretch of queued jobs, more than a tenth of the window.
	for i := 3 * blockSize; i < 4*blockSize+blockSize/10; i++ {
		xs[i] = 1000
	}
	res := newResult()
	res.pctBlocks("job_latency_p90_ms", xs, 90)
	if whole := stats.Percentile(xs, 90); whole != 1000 {
		t.Fatalf("whole-window p90 = %v, want the backlog's 1000", whole)
	}
	if got := res.e2e["job_latency_p90_ms"]; got != 10 {
		t.Errorf("block-median p90 = %v, want 10", got)
	}
	// Too few samples for two blocks: the plain percentile.
	res = newResult()
	res.pctBlocks("job_latency_p90_ms", xs[:blockSize+50], 90)
	if got := res.e2e["job_latency_p90_ms"]; got != 10 {
		t.Errorf("p90 of one short stretch = %v, want 10", got)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	var e2e, layer []def
	for _, m := range f.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, def{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\nfile %v\ncode %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\nfile %v\ncode %v", layer, perLayer)
	}
	seen := map[string]bool{}
	for _, n := range append(names, append(defNames(endToEnd), defNames(perLayer)...)...) {
		if !valid.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func defNames(defs []def) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// TestSmokeEmitsEveryName runs every workload for a moment, untraced,
// and one traced run, and checks that the names that come out are
// exactly the declared ones. It checks names, not values.
func TestSmokeEmitsEveryName(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	saved := minBeyond
	minBeyond = 0
	defer func() { minBeyond = saved }()
	cfg := runCfg{seed: 1, nproc: 2}
	for _, w := range workloads {
		res, err := runUntraced(w, cfg, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.failed, res.attempted, res.errs)
		}
		if len(res.e2e) != len(endToEnd) {
			t.Errorf("%s emitted %d end-to-end metrics, declared %d", w.name, len(res.e2e), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := res.e2e[d.name]; !ok || v == 0 {
				t.Errorf("%s: %s = %v, %v", w.name, d.name, v, ok)
			}
		}
	}
	res, err := runTraced("svc-small", cfg, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.layer) != len(perLayer) {
		t.Errorf("traced run emitted %d per-layer metrics, declared %d", len(res.layer), len(perLayer))
	}
}
