package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkSimulatorThroughput-2        	    1101	   1078674 ns/op	      1024 tasks	  251880 B/op	     115 allocs/op
BenchmarkSimulatorThroughputMulti-2   	      68	  14759413 ns/op	  24976666 granules/sec	 2210864 B/op	     569 allocs/op
BenchmarkSimulatorOneJob/multi/sharded-2	3	1336317 ns/op
BenchmarkTraceDownload/history=1M-2	1	90417 ns/op	1031 events_visited/op
PASS
`

func TestCheckMax(t *testing.T) {
	entries, err := parse(strings.NewReader(sample))
	if err != nil || len(entries) != 4 {
		t.Fatalf("parse: %d entries, err %v", len(entries), err)
	}
	for _, tc := range []struct {
		max     string
		wantErr string // substring; "" = passes
	}{
		{"", ""},
		{"SimulatorThroughputMulti:allocs/op=569", ""},
		{"SimulatorThroughputMulti:allocs/op=626, SimulatorThroughput:allocs/op=115", ""},
		// The name is exact: the Multi series' 569 does not trip a ceiling
		// set on SimulatorThroughput.
		{"SimulatorThroughput:allocs/op=200", ""},
		{"SimulatorThroughputMulti:allocs/op=568", "exceeds the ceiling"},
		{"SimulatorThroughputMulti:granules/sec=1e6", "exceeds the ceiling"},
		{"SimulatorOneJob/multi/sharded:ns/op=2e6", ""},
		{"SimulatorOneJob/multi/sharded:allocs/op=10", "reports no allocs/op"},
		{"SimulatorScaleMillion:allocs/op=3000", "missing from input"},
		// A sub-benchmark name may hold an "=" of its own.
		{"TraceDownload/history=1M:events_visited/op=5122", ""},
		{"TraceDownload/history=1M:events_visited/op=1000", "exceeds the ceiling"},
		{"SimulatorThroughputMulti=3", "malformed"},
		{"SimulatorThroughputMulti:allocs/op=many", "malformed"},
	} {
		err := checkMax(entries, tc.max)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("-max %q: unexpected error %v", tc.max, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("-max %q: error %v, want one containing %q", tc.max, err, tc.wantErr)
		}
	}
}

func TestCheckRequire(t *testing.T) {
	entries, _ := parse(strings.NewReader(sample))
	if err := checkRequire(entries, "SimulatorThroughput, OneJob/multi"); err != nil {
		t.Error(err)
	}
	if err := checkRequire(entries, "SimulatorScaleMillion"); err == nil {
		t.Error("a missing series passed -require")
	}
}
