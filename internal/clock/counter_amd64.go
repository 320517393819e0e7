package clock

import (
	"math/bits"
	"os"
	"runtime"
	"strings"
	"time"
)

// The counter is the processor's time-stamp counter, read with one RDTSC
// and scaled to nanoseconds since the epoch. Now reads it only where the
// kernel's current clocksource is "tsc": there the kernel's monotonic
// clock — the vDSO behind time.Since — reads this same counter, and the
// kernel has checked that it ticks at a constant rate and agrees across
// CPUs. Everywhere else (another clocksource, another OS, no such file)
// Now keeps time.Since. The choice is made once, at package init: a
// process keeps its source even if the kernel later demotes the counter.

// rdtsc returns the time-stamp counter (counter_amd64.s). It is not
// ordered against the instructions around it.
func rdtsc() uint64

// clocksourceFile names the kernel's current clocksource.
const clocksourceFile = "/sys/devices/system/clocksource/clocksource0/current_clocksource"

// calibration is how long the counter is compared with time.Since at
// init to find its rate.
const calibration = time.Millisecond

var counter, useCounter = selectCounter()

// counterNow reads the counter and scales it.
func counterNow() Stamp { return counter.at(rdtsc()) }

// selectCounter calibrates the counter if the kernel's clocksource allows
// it and reports whether Now reads it.
func selectCounter() (scale, bool) {
	src, err := os.ReadFile(clocksourceFile)
	if err != nil || !counterClocksource(runtime.GOOS, string(src)) {
		return scale{}, false
	}
	return calibrate()
}

// counterClocksource is the rule: Linux, and its clocksource is the
// counter.
func counterClocksource(goos, src string) bool {
	return goos == "linux" && strings.TrimSpace(src) == "tsc"
}

// scaleShift is the number of fraction bits of scale.mult.
const scaleShift = 32

// scale maps counter readings to Stamps: base at tick0, then mult
// nanoseconds per tick in fixed point.
type scale struct {
	tick0 uint64
	base  Stamp
	mult  uint64
}

// at converts a counter reading taken at or after tick0.
func (s *scale) at(tick uint64) Stamp {
	hi, lo := bits.Mul64(tick-s.tick0, s.mult)
	return s.base + Stamp(hi<<(64-scaleShift)|lo>>scaleShift)
}

// calibrate measures the counter's rate against time.Since over at least
// the calibration time. Each end is the best of a few brackets — a
// time.Since reading between two counter readings, placed at their
// midpoint — so a preemption inside one bracket costs nothing. The scale
// starts at the later end, so every Stamp it gives is at least that long
// after the epoch: never zero. It reports false if the counter did not
// advance.
func calibrate() (scale, bool) {
	t0, c0 := bracket()
	t1, c1 := t0, c0
	for t1-t0 < Stamp(calibration) {
		t1, c1 = bracket()
	}
	if c1 <= c0 {
		return scale{}, false
	}
	mult := (uint64(t1-t0) << scaleShift) / (c1 - c0)
	return scale{tick0: c1, base: t1, mult: mult}, true
}

// bracket returns a time.Since reading and the counter at the same
// instant, from the narrowest of five counter/time.Since/counter triples.
func bracket() (Stamp, uint64) {
	var t Stamp
	var c, width uint64
	for i := 0; i < 5; i++ {
		a := rdtsc()
		now := Stamp(time.Since(epoch))
		b := rdtsc()
		if i == 0 || b-a < width {
			t, c, width = now, a+(b-a)/2, b-a
		}
	}
	return t, c
}
