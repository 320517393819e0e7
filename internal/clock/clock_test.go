package clock

import (
	"runtime"
	"testing"
	"time"
)

// source is one way this host can read the clock.
type source struct {
	name string
	read func() Stamp
}

// sources lists Now as selected and the fallback it keeps where the
// counter is not selected; counter_amd64_test.go adds the counter itself,
// calibrated afresh, on every amd64 host whether or not Now selected it.
var sources = []source{
	{"Now", Now},
	{"fallback", func() Stamp { return Stamp(time.Since(epoch)) }},
}

// TestTracking: an interval of at least 20 ms read from each source
// agrees with time.Since over the same interval within 0.1 %. A
// preemption between a reading and its time.Since partner can cost more
// than that on a loaded host, so a source passes on any of three tries; a
// wrong rate fails all three.
func TestTracking(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			var got, want time.Duration
			for try := 0; try < 3; try++ {
				start := time.Now()
				s0 := src.read()
				time.Sleep(25 * time.Millisecond)
				s1 := src.read()
				want, got = time.Since(start), s1.Sub(s0)
				if diff := got - want; diff >= -want/1000 && diff <= want/1000 {
					return
				}
			}
			t.Fatalf("%s measured %v where time.Since measured %v (%.3f %% apart)",
				src.name, got, want, 100*float64(got-want)/float64(want))
		})
	}
}

// TestCrossThreadOrder: two goroutines on their own OS threads hand a
// reading back and forth; a reading taken after a receive is never
// earlier than the sender's reading taken before its send.
func TestCrossThreadOrder(t *testing.T) {
	const rounds = 10000
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			ping, pong := make(chan Stamp), make(chan Stamp)
			echoBad := make(chan int)
			go func() {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				bad := 0
				for sent := range ping {
					if src.read() < sent {
						bad++
					}
					pong <- src.read()
				}
				echoBad <- bad
			}()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			bad := 0
			for i := 0; i < rounds; i++ {
				ping <- src.read()
				if sent := <-pong; src.read() < sent {
					bad++
				}
			}
			close(ping)
			if bad += <-echoBad; bad > 0 {
				t.Fatalf("%s: %d of %d readings after a receive were earlier than the sender's", src.name, bad, 2*rounds)
			}
		})
	}
}

// TestNoZero: no source returns the zero Stamp, which the chain reads as
// "not read yet".
func TestNoZero(t *testing.T) {
	for _, src := range sources {
		for i := 0; i < 1000; i++ {
			if src.read() == 0 {
				t.Fatalf("%s returned the zero Stamp", src.name)
			}
		}
	}
}

var sink Stamp

// BenchmarkNow reports the cost of one reading from each source.
func BenchmarkNow(b *testing.B) {
	for _, src := range sources {
		b.Run(src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += src.read()
			}
		})
	}
}
