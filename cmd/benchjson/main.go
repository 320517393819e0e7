// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark with the metric pairs parsed
// out (ns/op, B/op, allocs/op, and any ReportMetric extras). CI pipes the
// benchmark smokes through it to emit the BENCH_*.json artifacts, so the
// perf trajectory has machine-readable data points per run.
//
// -require takes a comma-separated list of substrings; benchjson exits
// nonzero if any of them matches no benchmark name, so a renamed or
// deleted series breaks CI instead of silently vanishing from the data.
//
// -max takes a comma-separated list of Name:unit=N ceilings, Name being
// the benchmark's name without the Benchmark prefix and the -GOMAXPROCS
// suffix (N follows the entry's last "=", so a sub-benchmark named
// history=1M works); benchjson exits nonzero if that benchmark is missing, does not
// report the unit, or reports more than N. It is meant for the metrics
// that repeat exactly on any runner — allocs/op above all — where a
// ceiling a little over today's value turns a reintroduced per-event
// allocation into a failed build; timings on shared runners are not such
// metrics.
//
// Usage:
//
//	go test -run '^$' -bench 'Deque|Manager' -benchtime 1x -benchmem ./... |
//	  benchjson -require ManagerChainFineAsync,ManagerCasperAsync > BENCH_pr4.json
//	go test -run '^$' -bench SimulatorScaleMillion -benchtime 1x -benchmem . |
//	  benchjson -max 'SimulatorScaleMillion:allocs/op=3000' > BENCH_pr6.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// entry is one benchmark result. The fixed fields cover the metrics the
// perf gates care about; Extra carries everything else (ReportMetric).
type entry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  *float64           `json:"b_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// metric returns the value e reports under a `go test -bench` unit.
func (e *entry) metric(unit string) (float64, bool) {
	switch unit {
	case "ns/op":
		return e.NsPerOp, true
	case "B/op":
		if e.BytesPerOp != nil {
			return *e.BytesPerOp, true
		}
	case "allocs/op":
		if e.AllocsPerOp != nil {
			return *e.AllocsPerOp, true
		}
	default:
		v, ok := e.Extra[unit]
		return v, ok
	}
	return 0, false
}

// shortName strips the Benchmark prefix and the -GOMAXPROCS suffix.
func (e *entry) shortName() string {
	name := strings.TrimPrefix(e.Name, "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// parse reads `go test -bench` output and returns its benchmark lines.
func parse(r io.Reader) ([]entry, error) {
	out := []entry{} // non-nil: zero benchmarks must encode as [], not null
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark lines: name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := entry{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = &v
			case "allocs/op":
				e.AllocsPerOp = &v
			default:
				if e.Extra == nil {
					e.Extra = map[string]float64{}
				}
				e.Extra[fields[i+1]] = v
			}
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// checkRequire reports the first -require substring no benchmark matches.
func checkRequire(entries []entry, require string) error {
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, e := range entries {
			if strings.Contains(e.Name, want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("required benchmark %q missing from input", want)
		}
	}
	return nil
}

// checkMax reports the first -max ceiling that is malformed, names a
// benchmark or unit the input lacks, or is exceeded.
func checkMax(entries []entry, max string) error {
	for _, spec := range strings.Split(max, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		// The ceiling follows the last "=": sub-benchmark names carry
		// their own (TraceDownload/history=1M).
		eq := strings.LastIndexByte(spec, '=')
		ok := eq >= 0
		lhs, limit := spec, ""
		if ok {
			lhs, limit = spec[:eq], spec[eq+1:]
		}
		name, unit, ok2 := strings.Cut(lhs, ":")
		ceiling, err := strconv.ParseFloat(limit, 64)
		if !ok || !ok2 || name == "" || unit == "" || err != nil {
			return fmt.Errorf("malformed -max entry %q, want Name:unit=N", spec)
		}
		found := false
		for i := range entries {
			e := &entries[i]
			if e.shortName() != name {
				continue
			}
			found = true
			v, ok := e.metric(unit)
			if !ok {
				return fmt.Errorf("benchmark %s reports no %s (run with -benchmem?)", e.Name, unit)
			}
			if v > ceiling {
				return fmt.Errorf("benchmark %s: %v %s exceeds the ceiling of %v", e.Name, v, unit, ceiling)
			}
		}
		if !found {
			return fmt.Errorf("benchmark %q of -max entry %q missing from input", name, spec)
		}
	}
	return nil
}

func main() {
	require := flag.String("require", "", "comma-separated name substrings that must each match at least one benchmark")
	max := flag.String("max", "", "comma-separated Name:unit=N ceilings, e.g. SimulatorScaleMillion:allocs/op=3000")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	entries, err := parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	if err := checkRequire(entries, *require); err != nil {
		fail(err)
	}
	if err := checkMax(entries, *max); err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fail(err)
	}
}
