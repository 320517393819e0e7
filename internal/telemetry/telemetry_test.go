package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry(4, "ns")
	c1 := r.Counter("a_total", "help")
	c2 := r.Counter("a_total", "ignored on re-register")
	if c1 != c2 {
		t.Fatalf("re-registering a counter returned a different instance")
	}
	g1, g2 := r.Gauge("g", ""), r.Gauge("g", "")
	if g1 != g2 {
		t.Fatalf("re-registering a gauge returned a different instance")
	}
	h1, h2 := r.Histogram("h", ""), r.Histogram("h", "")
	if h1 != h2 {
		t.Fatalf("re-registering a histogram returned a different instance")
	}
	s1, s2 := NewSet(r), NewSet(r)
	if s1.Dispatches != s2.Dispatches {
		t.Fatalf("NewSet on one registry did not share metrics")
	}
}

func TestCounterShardsSum(t *testing.T) {
	r := NewRegistry(8, "ns")
	c := r.Counter("c_total", "")
	for w := 0; w < 8; w++ {
		c.Add(w, int64(w+1))
	}
	if got := c.Value(); got != 36 {
		t.Fatalf("Value = %d, want 36", got)
	}
	// Out-of-range workers fold into shard 0 rather than faulting.
	c.Add(-1, 1)
	c.Add(99, 1)
	if got := c.Value(); got != 38 {
		t.Fatalf("Value after out-of-range adds = %d, want 38", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry(1, "ns")
	g := r.Gauge("g", "")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket upper bounds must be strictly increasing.
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<62 + 99}
	for _, v := range vals {
		i := bucketIndex(v)
		if up := bucketUpper(i); v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			if lo := bucketUpper(i - 1); v <= lo {
				t.Errorf("value %d at or below previous bucket's bound %d (bucket %d)", v, lo, i)
			}
		}
	}
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucket bounds not increasing at %d: %d <= %d", i, up, prev)
		}
		prev = up
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

func TestHistogramStatsAndQuantiles(t *testing.T) {
	r := NewRegistry(1, "ns")
	h := r.Histogram("h", "")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("Min/Max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
	// Log-linear buckets bound relative error by 1/subCount.
	p50 := h.Quantile(0.50)
	if p50 < 450 || p50 > 560 {
		t.Fatalf("p50 = %d, want ~500 within bucket error", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 930 || p99 > 1056 {
		t.Fatalf("p99 = %d, want ~990 within bucket error", p99)
	}
	if h.Quantile(0) > 16 {
		t.Fatalf("q0 = %d, want first bucket", h.Quantile(0))
	}
}

func TestDumpDeterministicAndSorted(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry(4, "virtual")
		for _, n := range order {
			r.Counter(n, "h")
		}
		h := r.Histogram("zz_hist", "")
		h.Observe(3)
		h.Observe(300)
		for i, n := range order {
			r.Counter(n, "").Add(i%4, int64(10+i))
		}
		b, err := json.Marshal(r.Dump())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a := build([]string{"b_total", "a_total", "c_total"})
	d := NewRegistry(2, "virtual")
	d.Counter("b_total", "").Add(0, 1)
	d.Counter("a_total", "").Add(0, 2)
	dump := d.Dump()
	if dump.Metrics[0].Name != "a_total" || dump.Metrics[1].Name != "b_total" {
		t.Fatalf("dump not sorted by name: %+v", dump.Metrics)
	}
	if dump.TimeUnit != "virtual" {
		t.Fatalf("TimeUnit = %q", dump.TimeUnit)
	}
	// Bit-identical across identical recordings.
	a2 := build([]string{"b_total", "a_total", "c_total"})
	if string(a) != string(a2) {
		t.Fatalf("identical recordings dumped differently:\n%s\n%s", a, a2)
	}
	if g := dump.Get("a_total"); g == nil || g.Value != 2 {
		t.Fatalf("Get(a_total) = %+v", g)
	}
	if dump.Get("missing") != nil {
		t.Fatalf("Get(missing) should be nil")
	}
}

func TestSharesMath(t *testing.T) {
	util, over := Shares(400, 100, 4, 200)
	if util != 0.5 || over != 0.125 {
		t.Fatalf("Shares = %v, %v; want 0.5, 0.125", util, over)
	}
	if u, o := Shares(1, 1, 0, 100); u != 0 || o != 0 {
		t.Fatalf("zero workers must yield zero shares")
	}
	if u, o := Shares(1, 1, 4, 0); u != 0 || o != 0 {
		t.Fatalf("zero elapsed must yield zero shares")
	}
}

// TestConcurrentRecording hammers one set from many goroutines; run
// under -race this is the sharded-counter concurrency gate.
func TestConcurrentRecording(t *testing.T) {
	const workers = 8
	const perWorker = 2000
	r := NewRegistry(workers, "ns")
	s := NewSet(r)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				s.Dispatches.Inc(w)
				s.ComputeTime.Add(w, 5)
				s.DispatchWait.Observe(rng.Int63n(1 << 20))
				s.ReadyOccupancy.Set(int64(i))
				if i%64 == 0 {
					// A concurrent scrape must be safe against recording.
					_ = r.Dump()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Dispatches.Value(); got != workers*perWorker {
		t.Fatalf("Dispatches = %d, want %d", got, workers*perWorker)
	}
	if got := s.ComputeTime.Value(); got != workers*perWorker*5 {
		t.Fatalf("ComputeTime = %d, want %d", got, workers*perWorker*5)
	}
	if got := s.DispatchWait.Count(); got != workers*perWorker {
		t.Fatalf("DispatchWait count = %d, want %d", got, workers*perWorker)
	}
}

// TestRecordingAllocs pins amortized-zero-alloc recording: the hot-path
// operations must not allocate at all.
func TestRecordingAllocs(t *testing.T) {
	r := NewRegistry(4, "ns")
	s := NewSet(r)
	if n := testing.AllocsPerRun(1000, func() {
		s.Dispatches.Inc(1)
		s.ComputeTime.Add(2, 123)
		s.DispatchWait.Observe(4096)
		s.ReadyOccupancy.Set(7)
	}); n != 0 {
		t.Fatalf("recording allocated %.1f allocs/op, want 0", n)
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry(2, "ns")
	s := NewSet(r)
	s.Dispatches.Add(0, 3)
	s.DispatchWait.Observe(10)
	s.DispatchWait.Observe(1000)
	s.ReadyOccupancy.Set(4)
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE rundown_dispatch_total counter",
		"rundown_dispatch_total 3",
		"# TYPE rundown_ready_occupancy gauge",
		"rundown_ready_occupancy 4",
		"# TYPE rundown_dispatch_wait histogram",
		"rundown_dispatch_wait_bucket{le=\"+Inf\"} 2",
		"rundown_dispatch_wait_sum 1010",
		"rundown_dispatch_wait_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n---\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "rundown_dispatch_wait_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
}

// writePromFmt is the exposition as it was formatted through fmt — the
// reference WriteProm's append-based form must match byte for byte.
func writePromFmt(r *Registry, w *strings.Builder) {
	r.visit(
		func(c *Counter) {
			n := promName(c.name)
			if c.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", n, c.help)
			}
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value())
		},
		func(g *Gauge) {
			n := promName(g.name)
			if g.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", n, g.help)
			}
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, g.Value())
		},
		func(h *Histogram) {
			n := promName(h.name)
			if h.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", n, h.help)
			}
			fmt.Fprintf(w, "# TYPE %s histogram\n", n)
			var cum int64
			for _, b := range h.snapshotBuckets(nil) {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.Upper, cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count())
			fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum())
			fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
		},
	)
}

// TestPromExpositionByteIdentical: every metric type, with and without
// help text, a negative gauge, an empty histogram, class series and a name
// that needs sanitizing all render exactly as the fmt form did.
func TestPromExpositionByteIdentical(t *testing.T) {
	r := NewRegistry(2, "ns")
	s := NewSet(r)
	s.Dispatches.Add(1, 1<<40)
	s.ActiveJobs.Set(-3)
	for _, v := range []int64{0, 1, 10, 1000, 1 << 33} {
		s.QueueWait.Observe(v)
	}
	s.Class("Latency-1").Submitted.Inc(0)
	r.Counter("9 odd.name", "").Inc(0)
	r.Gauge("no_help_gauge", "").Set(7)
	r.Histogram("no_help_hist", "").Observe(5)

	var got, want strings.Builder
	r.WriteProm(&got)
	writePromFmt(r, &want)
	if got.String() != want.String() {
		t.Fatalf("exposition changed\n--- got\n%s\n--- want\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), "__odd_name 1\n") {
		t.Errorf("unsanitized name in exposition:\n%s", got.String())
	}
}

// TestSetClassMemoised: the counters for a class are registered once and
// handed back without rebuilding their names.
func TestSetClassMemoised(t *testing.T) {
	s := NewSet(NewRegistry(1, "ns"))
	first := s.Class("batch")
	if again := s.Class("batch"); again != first {
		t.Fatalf("Class returned different counters for one class: %+v vs %+v", again, first)
	}
	if other := s.Class("latency"); other.Submitted == first.Submitted {
		t.Fatal("two classes share a counter")
	}
	if n := testing.AllocsPerRun(100, func() { s.Class("batch").Done.Inc(0) }); n != 0 {
		t.Errorf("Class on a known class allocated %.1f objects per call, want 0", n)
	}
}

func TestExpvarPublishIdempotent(t *testing.T) {
	r := NewRegistry(1, "ns")
	s := NewSet(r)
	s.Dispatches.Inc(0)
	// Publishing twice (and publishing a second registry under the same
	// prefix) must not panic on duplicate names.
	r.Publish("telemetry_test")
	r.Publish("telemetry_test")
	r2 := NewRegistry(1, "ns")
	NewSet(r2)
	r2.Publish("telemetry_test")
}

func TestFormatDump(t *testing.T) {
	r := NewRegistry(1, "virtual")
	s := NewSet(r)
	s.Dispatches.Add(0, 9)
	s.DispatchWait.Observe(100)
	out := FormatDump(r.Dump())
	if !strings.Contains(out, "rundown_dispatch_total") || !strings.Contains(out, "time unit: virtual") {
		t.Fatalf("FormatDump output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "count=1") {
		t.Fatalf("FormatDump histogram summary missing:\n%s", out)
	}
}
