package clock

import (
	"os"
	"runtime"
	"testing"
)

func init() {
	s, ok := calibrate()
	if !ok {
		panic("clock: the time-stamp counter did not advance during calibration")
	}
	sources = append(sources, source{"counter", func() Stamp { return s.at(rdtsc()) }})
}

// TestCounterSelection: Now reads the counter exactly where the rule
// says, and the rule takes only Linux's "tsc" clocksource.
func TestCounterSelection(t *testing.T) {
	for _, c := range []struct {
		goos, src string
		want      bool
	}{
		{"linux", "tsc\n", true},
		{"linux", "tsc", true},
		{"linux", "kvm-clock\n", false},
		{"linux", "hpet\n", false},
		{"linux", "", false},
		{"darwin", "tsc\n", false},
	} {
		if got := counterClocksource(c.goos, c.src); got != c.want {
			t.Errorf("counterClocksource(%q, %q) = %v, want %v", c.goos, c.src, got, c.want)
		}
	}
	src, err := os.ReadFile(clocksourceFile)
	want := err == nil && counterClocksource(runtime.GOOS, string(src))
	if useCounter != want {
		t.Fatalf("Now reads the counter: %v; clocksource %q (%v) says %v", useCounter, src, err, want)
	}
	t.Logf("clocksource %q: Now reads the counter: %v", src, useCounter)
}
