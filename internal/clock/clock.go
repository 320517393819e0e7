// Package clock is the one clock the wall-clock backends measure
// intervals with: a monotonic nanosecond stamp since a process epoch.
//
// Hot paths never call time.Now(): it reads the wall clock and the
// monotonic clock (two vDSO calls) to build a value whose wall half an NTP
// step can move, and every interval the executive charges — compute,
// management, idle, dispatch wait, the stall watchdog's silence — is a
// difference of two readings, for which the monotonic half alone is both
// sufficient and correct. Now is one monotonic read — or, where the
// kernel's own monotonic clock is the processor's time-stamp counter, one
// read of that counter scaled to nanoseconds (counter_amd64.go).
//
// Stamps are chained, not paired: a worker reads the clock where its time
// changes category — compute, management, idle — and hands its latest
// reading to the next callee, which charges from it and returns its own
// last reading, so the end of one interval is the start of the next and no
// boundary is read twice. The zero Stamp in that chain means "not read
// since the last boundary": whoever needs the boundary reads it (OrNow).
// See DESIGN.md, "Clock discipline".
package clock

import "time"

// epoch carries a monotonic reading, so time.Since(epoch) is a single
// monotonic clock read with no wall-clock component.
var epoch = time.Now()

// Stamp is a point in time: nanoseconds since the process epoch on the
// monotonic clock.
type Stamp int64

// Now reads the monotonic clock: the counter when it was selected at
// start, else time.Since of the epoch.
func Now() Stamp {
	if useCounter {
		return counterNow()
	}
	return Stamp(time.Since(epoch))
}

// OrNow returns s, or a fresh reading when s is the zero Stamp — the
// chain's "not read yet". (Now itself returns zero only within the clock's
// resolution of package initialization, before any worker exists.)
func (s Stamp) OrNow() Stamp {
	if s != 0 {
		return s
	}
	return Now()
}

// Sub returns the duration s-t.
func (s Stamp) Sub(t Stamp) time.Duration { return time.Duration(s - t) }
