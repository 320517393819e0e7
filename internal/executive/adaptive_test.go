package executive

import "testing"

// TestTunerDefaults: the zero config selects the sharded manager's fixed
// defaults as the starting point (cap 16, batch 8) and sane bounds.
func TestTunerDefaults(t *testing.T) {
	tu := NewTuner(TunerConfig{})
	if tu.Cap() != 16 || tu.Batch() != 8 {
		t.Fatalf("defaults cap=%d batch=%d, want 16/8", tu.Cap(), tu.Batch())
	}
	if _, _, changed := tu.Observe(0, 0, 0, 0); changed {
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
		tu.Observe(capacity, o, hi, 0)
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
		tu.Observe(capacity, o, hi, 0)
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
		tu.Observe(capacity, o, hi, 0)
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
		tu.Observe(capacity, 0, 0, 0) // idle tail: no hoarded starvation
	}
	if tu.Cap() != 64 || tu.Changes() != 0 {
		t.Fatalf("rundown tail moved the cap to %d (%d changes), want held at 64",
			tu.Cap(), tu.Changes())
	}
	// One starvation blip between quiet epochs: armed, then disarmed.
	tu.Observe(capacity, 0, capacity/2, 0)
	tu.Observe(capacity, 0, 0, 0)
	tu.Observe(capacity, 0, capacity/2, 0)
	if tu.Changes() != 0 {
		t.Fatalf("isolated starvation blips shrank the cap to %d", tu.Cap())
	}
}

// TestTunerLockStarvationGrows is the ROADMAP's large-P scenario: the
// global lock is saturated, but the waiters park on the condition
// variable instead of spinning on the mutex, so the measured acquisition
// overhead reads ~0 against machine capacity and the classic grow rule
// stays silent. The parked-while-lock-busy input must trigger growth on
// its own once it persists two epochs — a one-epoch blip moves nothing —
// and must stay quiet below its target, and always lose to the
// hoarded-idle shrink signal when tasks provably sat in peer deques.
func TestTunerLockStarvationGrows(t *testing.T) {
	const capacity = 1_000_000
	tu := NewTuner(TunerConfig{Cap: 16, MgmtTarget: 0.05})
	// Overhead ~0 (well under target), no hoarded idle, 30% of capacity
	// parked behind a busy management path.
	cap0 := tu.Cap()
	tu.Observe(capacity, capacity/1000, 0, capacity*3/10)
	if tu.Cap() != cap0 {
		t.Fatalf("one lock-starvation epoch moved the cap to %d, want persistence gate to hold %d",
			tu.Cap(), cap0)
	}
	tu.Observe(capacity, capacity/1000, 0, capacity*3/10)
	if tu.Cap() != cap0*2 {
		t.Fatalf("persistent lock starvation at 30%% grew cap to %d, want %d", tu.Cap(), cap0*2)
	}

	// An isolated blip between quiet epochs disarms the gate.
	blip := NewTuner(TunerConfig{Cap: 16, MgmtTarget: 0.05})
	blip.Observe(capacity, 0, 0, capacity*3/10)
	blip.Observe(capacity, 0, 0, 0)
	blip.Observe(capacity, 0, 0, capacity*3/10)
	if blip.Changes() != 0 {
		t.Fatalf("isolated lock-starvation blips grew the cap to %d", blip.Cap())
	}

	// Below the starvation target nothing moves.
	quiet := NewTuner(TunerConfig{Cap: 16, MgmtTarget: 0.05})
	for e := 0; e < 20; e++ {
		quiet.Observe(capacity, capacity/1000, 0, capacity/10) // 10% < 20% target
	}
	if quiet.Changes() != 0 {
		t.Fatalf("sub-target lock starvation moved the cap to %d", quiet.Cap())
	}

	// Hoarded idle wins over lock starvation: tasks sat in peer deques,
	// so the remedy is redistribution (shrink), not amortization.
	both := NewTuner(TunerConfig{Cap: 64, MgmtTarget: 0.05})
	for e := 0; e < 10; e++ {
		both.Observe(capacity, 0, capacity/2, capacity/2)
	}
	if both.Cap() >= 64 {
		t.Fatalf("simultaneous hoarding+starvation grew the cap to %d, want shrink", both.Cap())
	}

	// The veto holds even when the shrink rule itself cannot fire: with
	// the overhead share inside the hold band (above MgmtTarget*tunerLowBand,
	// below MgmtTarget) the shrink case's guard fails, but high hoarded
	// idle must still block the lock-starvation grow — growing the
	// refill while tasks sit hoarded deepens the starvation.
	band := NewTuner(TunerConfig{Cap: 64, MgmtTarget: 0.05})
	for e := 0; e < 10; e++ {
		// overShare 0.03 (hold band), hoarded 40%, lock starvation 30%.
		band.Observe(capacity, capacity*3/100, capacity*4/10, capacity*3/10)
	}
	if band.Cap() != 64 || band.Changes() != 0 {
		t.Fatalf("hold-band hoarding let lock starvation move the cap to %d (%d changes), want held at 64",
			band.Cap(), band.Changes())
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
			tu.Observe(capacity, over, starve, 0)
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
		tu.Observe(capacity, capacity/2, 0, 0) // overhead share 50%: grow hard
	}
	if tu.Cap() != tunerMaxCap {
		t.Fatalf("cap = %d, want clamped at %d", tu.Cap(), tunerMaxCap)
	}
	tu2 := NewTuner(TunerConfig{Cap: 4 * tunerMinCap, MgmtTarget: 0.05})
	for e := 0; e < 30; e++ {
		tu2.Observe(capacity, 0, capacity/2, 0) // hoarded idle 50%: shrink hard
	}
	if tu2.Cap() != tunerMinCap {
		t.Fatalf("cap = %d, want clamped at %d", tu2.Cap(), tunerMinCap)
	}
	if tu2.Batch() > tu2.Cap() {
		t.Fatalf("batch %d exceeds cap %d", tu2.Batch(), tu2.Cap())
	}
}
