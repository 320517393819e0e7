package sim

import "testing"

// TestTunerDefaults: the zero config selects the sharded manager's fixed
// defaults as the starting point (cap 16, batch 8) and sane bounds.
func TestTunerDefaults(t *testing.T) {
	tu := NewTuner(TunerConfig{})
	if tu.Cap() != 16 || tu.Batch() != 8 {
		t.Fatalf("defaults cap=%d batch=%d, want 16/8", tu.Cap(), tu.Batch())
	}
	if _, _, changed := tu.Observe(0, 0, 0); changed {
		t.Error("empty epoch changed parameters")
	}
}

// synthEpoch models the closed loop the tuner actually runs in: the
// amortizable lock overhead falls inversely with the batch (each doubling
// halves the visit count), and hoarded-idle starvation appears once the
// batch outgrows the machine (here: above 64).
func synthEpoch(cap int) (overhead, hoardedIdle int64) {
	const capacity = 1_000_000
	overhead = int64(float64(capacity) * 0.5 / float64(cap))
	if cap > 64 {
		hoardedIdle = int64(float64(capacity) * 0.4)
	}
	return overhead, hoardedIdle
}

// TestTunerGrowsUnderLockPressure: with the lock-overhead share far above
// target the tuner must grow multiplicatively, then hold once the share
// falls below target — and never move again on the steady signal (the
// hold band is wider than the one halving each doubling buys).
func TestTunerGrowsUnderLockPressure(t *testing.T) {
	tu := NewTuner(TunerConfig{Cap: 2, MgmtTarget: 0.05})
	const capacity = 1_000_000
	for e := 0; e < 40; e++ {
		o, hi := synthEpoch(tu.Cap())
		tu.Observe(capacity, o, hi)
	}
	// 0.5/cap <= 0.05 first holds at cap 16: growth must stop there, well
	// short of the hoarding region.
	if tu.Cap() != 16 {
		t.Fatalf("converged cap = %d, want 16", tu.Cap())
	}
	if tu.Batch() > tu.Cap() {
		t.Fatalf("batch %d exceeds cap %d", tu.Batch(), tu.Cap())
	}
	settled := tu.Changes()
	for e := 0; e < 100; e++ {
		o, hi := synthEpoch(tu.Cap())
		tu.Observe(capacity, o, hi)
	}
	if tu.Changes() != settled {
		t.Fatalf("steady signal kept moving the parameters: %d changes after settling at %d",
			tu.Changes(), settled)
	}
}

// TestTunerShrinksOnHoardedIdle: overhead cheap, workers starving while
// peers hold tasks — the tuner must shrink until the starvation clears.
func TestTunerShrinksOnHoardedIdle(t *testing.T) {
	tu := NewTuner(TunerConfig{Cap: 512, MgmtTarget: 0.05})
	const capacity = 1_000_000
	for e := 0; e < 60; e++ {
		o, hi := synthEpoch(tu.Cap())
		tu.Observe(capacity, o, hi)
	}
	// synthEpoch's starvation signal fires above cap 64, so 64 is the
	// first quiet size; its overhead share (0.0078) is inside the hold
	// band.
	if tu.Cap() != 64 {
		t.Fatalf("converged cap = %d, want 64", tu.Cap())
	}
}

// TestTunerRundownTailDoesNotRatchet: parked workers with every deque
// empty contribute nothing to hoarded idle — a genuine rundown tail must
// hold, and a one-epoch starvation blip must also hold (the persistence
// gate).
func TestTunerRundownTailDoesNotRatchet(t *testing.T) {
	tu := NewTuner(TunerConfig{Cap: 64, MgmtTarget: 0.05})
	const capacity = 1_000_000
	for e := 0; e < 40; e++ {
		tu.Observe(capacity, 0, 0) // idle tail: no hoarded starvation
	}
	if tu.Cap() != 64 || tu.Changes() != 0 {
		t.Fatalf("rundown tail moved the cap to %d (%d changes), want held at 64",
			tu.Cap(), tu.Changes())
	}
	// One starvation blip between quiet epochs: armed, then disarmed.
	tu.Observe(capacity, 0, capacity/2)
	tu.Observe(capacity, 0, 0)
	tu.Observe(capacity, 0, capacity/2)
	if tu.Changes() != 0 {
		t.Fatalf("isolated starvation blips shrank the cap to %d", tu.Cap())
	}
}

// TestTunerNeverOscillatesSteady: any fixed signal must produce at most
// one-directional travel and then silence — the persistence gate plus the
// hold band must prevent limit cycles even for signals at the thresholds.
func TestTunerNeverOscillatesSteady(t *testing.T) {
	const capacity = 1_000_000
	cases := []struct{ overShare, starveShare float64 }{
		{0.0, 0.0},
		{0.04, 0.0},
		{0.05, 0.5},
		{0.051, 0.5},
		{0.019, 0.5},
		{0.9, 0.0},
	}
	for _, tc := range cases {
		tu := NewTuner(TunerConfig{Cap: 16, MgmtTarget: 0.05})
		over := int64(tc.overShare * capacity)
		starve := int64(tc.starveShare * capacity)
		dir := 0 // -1 shrinking, +1 growing
		prev := tu.Cap()
		for e := 0; e < 60; e++ {
			tu.Observe(capacity, over, starve)
			switch {
			case tu.Cap() > prev:
				if dir < 0 {
					t.Fatalf("%+v: grew after shrinking (cap %d -> %d)", tc, prev, tu.Cap())
				}
				dir = 1
			case tu.Cap() < prev:
				if dir > 0 {
					t.Fatalf("%+v: shrank after growing (cap %d -> %d)", tc, prev, tu.Cap())
				}
				dir = -1
			}
			prev = tu.Cap()
		}
	}
}

// TestTunerClamps: growth saturates at tunerMaxCap, shrink at
// tunerMinCap, and the batch never exceeds the cap.
func TestTunerClamps(t *testing.T) {
	tu := NewTuner(TunerConfig{Cap: tunerMaxCap / 4, MgmtTarget: 0.05})
	const capacity = 1_000_000
	for e := 0; e < 30; e++ {
		tu.Observe(capacity, capacity/2, 0) // overhead share 50%: grow hard
	}
	if tu.Cap() != tunerMaxCap {
		t.Fatalf("cap = %d, want clamped at %d", tu.Cap(), tunerMaxCap)
	}
	tu2 := NewTuner(TunerConfig{Cap: 4 * tunerMinCap, MgmtTarget: 0.05})
	for e := 0; e < 30; e++ {
		tu2.Observe(capacity, 0, capacity/2) // hoarded idle 50%: shrink hard
	}
	if tu2.Cap() != tunerMinCap {
		t.Fatalf("cap = %d, want clamped at %d", tu2.Cap(), tunerMinCap)
	}
	if tu2.Batch() > tu2.Cap() {
		t.Fatalf("batch %d exceeds cap %d", tu2.Batch(), tu2.Cap())
	}
}
