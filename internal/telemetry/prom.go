package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// This file is the wire exposition: the Prometheus text format (0.0.4)
// over HTTP and an expvar mirror — the two mount points a long-lived
// daemon needs. Both read the registry lock-free through the same
// sorted visit Dump uses, so a scrape during a live run costs the
// workers nothing.

// promName sanitizes a metric name into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are already chosen to pass
// through unchanged — and then are returned as they are — this keeps
// arbitrary caller-registered names from corrupting the exposition.
func promName(name string) string {
	ok := func(i int, r rune) bool {
		return r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
	}
	clean := true
	for i, r := range name {
		clean = clean && ok(i, r)
	}
	if clean {
		return name
	}
	var b strings.Builder
	for i, r := range name {
		if ok(i, r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promWriter appends exposition lines to a builder piecewise: strings as
// they are, integers through a scratch array, so a scrape formats nothing
// through fmt and boxes no value.
type promWriter struct {
	b   *strings.Builder
	num [20]byte // fits any int64 in decimal
}

func (w *promWriter) str(parts ...string) {
	for _, p := range parts {
		w.b.WriteString(p)
	}
}

func (w *promWriter) int(v int64) {
	w.b.Write(strconv.AppendInt(w.num[:0], v, 10))
}

// sample writes "<value>\n" after whatever names the sample.
func (w *promWriter) sample(v int64) {
	w.int(v)
	w.b.WriteByte('\n')
}

// header writes the HELP line (when there is help text) and the TYPE line.
func (w *promWriter) header(n, help, kind string) {
	if help != "" {
		w.str("# HELP ", n, " ", help, "\n")
	}
	w.str("# TYPE ", n, " ", kind, "\n")
}

// WriteProm writes the registry in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as
// cumulative le-labeled buckets plus _sum and _count.
func (r *Registry) WriteProm(b *strings.Builder) {
	w := promWriter{b: b}
	var buckets []BucketDump
	r.visit(
		func(c *Counter) {
			n := promName(c.name)
			w.header(n, c.help, "counter")
			w.str(n, " ")
			w.sample(c.Value())
		},
		func(g *Gauge) {
			n := promName(g.name)
			w.header(n, g.help, "gauge")
			w.str(n, " ")
			w.sample(g.Value())
		},
		func(h *Histogram) {
			n := promName(h.name)
			w.header(n, h.help, "histogram")
			var cum int64
			buckets = h.snapshotBuckets(buckets[:0])
			for _, bk := range buckets {
				cum += bk.Count
				w.str(n, "_bucket{le=\"")
				w.int(bk.Upper)
				w.str("\"} ")
				w.sample(cum)
			}
			w.str(n, "_bucket{le=\"+Inf\"} ")
			w.sample(h.Count())
			w.str(n, "_sum ")
			w.sample(h.Sum())
			w.str(n, "_count ")
			w.sample(h.Count())
		},
	)
}

// Handler serves the registry in the Prometheus text format — mount it
// on any mux (the rundownsim -metrics-listen endpoint, or a service's
// /metrics route).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteProm(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, b.String())
	})
}

// Publish mirrors the registry into the process-global expvar
// namespace under the given prefix: each metric becomes
// "<prefix>.<name>" reading its live value (histograms expose count,
// sum, and p50/p99). expvar panics on duplicate names, so Publish
// checks first and re-Publish of the same prefix is a no-op — but two
// registries published under one prefix silently keep the first, so
// give long-lived registries distinct prefixes.
func (r *Registry) Publish(prefix string) {
	if prefix == "" {
		prefix = "rundown"
	}
	r.visit(
		func(c *Counter) {
			name := prefix + "." + c.name
			if expvar.Get(name) == nil {
				expvar.Publish(name, expvar.Func(func() any { return c.Value() }))
			}
		},
		func(g *Gauge) {
			name := prefix + "." + g.name
			if expvar.Get(name) == nil {
				expvar.Publish(name, expvar.Func(func() any { return g.Value() }))
			}
		},
		func(h *Histogram) {
			name := prefix + "." + h.name
			if expvar.Get(name) == nil {
				expvar.Publish(name, expvar.Func(func() any {
					return map[string]int64{
						"count": h.Count(),
						"sum":   h.Sum(),
						"p50":   h.Quantile(0.50),
						"p99":   h.Quantile(0.99),
					}
				}))
			}
		},
	)
}

// FormatDump renders a Dump as a human-readable table for CLI output
// (rundownsim -metrics). One line per metric; histograms summarize as
// count/sum/min/p50/p99/max.
func FormatDump(d *Dump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# metrics (time unit: %s)\n", d.TimeUnit)
	for _, m := range d.Metrics {
		switch m.Kind {
		case "histogram":
			p50, p99 := quantileFromDump(&m, 0.50), quantileFromDump(&m, 0.99)
			fmt.Fprintf(&b, "%-36s count=%d sum=%d min=%d p50=%d p99=%d max=%d\n",
				m.Name, m.Count, m.Sum, m.Min, p50, p99, m.Max)
		default:
			fmt.Fprintf(&b, "%-36s %s\n", m.Name, strconv.FormatInt(m.Value, 10))
		}
	}
	return b.String()
}

// quantileFromDump estimates a quantile from a dumped histogram's
// buckets, mirroring Histogram.Quantile.
func quantileFromDump(m *MetricDump, q float64) int64 {
	if m.Count == 0 {
		return 0
	}
	rank := int64(q*float64(m.Count-1)) + 1
	var seen int64
	for _, b := range m.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Upper
		}
	}
	return m.Max
}
