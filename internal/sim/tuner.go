package sim

// This file is the adaptive batching controller: the paper's E5
// computation-to-management ratio turned into a feedback signal. The
// fixed DequeCap/Batch defaults leave the virtual-processor granularity
// trade-off untuned — too small and every worker visits the global lock
// per task (the amortizable lock-entry overhead explodes at fine grain),
// too large and refills hoard tasks workers elsewhere could have run
// (rundown tail latency grows). The Tuner retunes both online, one
// multiplicative step per refill epoch:
//
//   - lock-overhead share above the target -> double cap and batch.
//     The overhead fed here is only the amortizable part of management —
//     the per-visit cost of entering the executive at all (measured lock
//     acquisition time on hardware, Acquire charges in the simulator) —
//     NOT total management time: the state-machine work inside the lock
//     grows with the batch, so feeding total management would tell the
//     controller to grow precisely when visits are already too long.
//     Overhead falls monotonically as the batch grows, so this rule
//     cannot run away upward.
//   - hoarded-idle share above its target -> halve cap and batch. The
//     hoarded-idle signal is processor time spent parked *while tasks
//     sat in peer deques* — the exact waste a smaller refill would have
//     redistributed (the rundown tail latency the batch size inflates).
//     A genuine rundown tail (idle high, every deque empty — nothing to
//     redistribute) contributes nothing to it, so the drain of the final
//     phase cannot ratchet the batch to the floor; neither can a fully
//     busy machine, however much its deques hold.
//   - otherwise hold. The hold band between the shrink and grow
//     thresholds is wider than one doubling (overhead halves per step),
//     the hoarded-idle signal must persist two consecutive epochs, and a
//     cooldown epoch follows every change, so a steady workload settles
//     and stays put.
//
// The Tuner is deterministic and unit-agnostic: an epoch is total machine
// capacity (workers x elapsed) plus the lock-overhead and hoarded-idle
// shares of it. Its one driver is the Adaptive model (adaptive.go),
// in virtual units (E12 prices it). The goroutine sharded manager runs
// fixed parameters: its workers park in the pool, above the manager, where
// the shrink input cannot be measured, and no hardware benchmark separated
// the controller from fixed sharded.

// The controller's fixed parameters. Nothing ever set them to anything
// else, so they are constants, not configuration.
const (
	// tunerMinCap and tunerMaxCap bound the deque capacity.
	tunerMinCap, tunerMaxCap = 1, 512
	// tunerIdleTarget is the hoarded-idle share (parked time overlapping
	// nonempty peer deques) above which — overhead being cheap — the
	// controller shrinks.
	tunerIdleTarget = 0.25
	// tunerLowBand is the fraction of MgmtTarget below which the overhead
	// is considered cheap enough to trade batching away for distribution.
	// The hold band [MgmtTarget*tunerLowBand, MgmtTarget] must be wider
	// than one halving of the overhead, i.e. tunerLowBand < 0.5, or a
	// single step could jump across it and oscillate.
	tunerLowBand = 0.4
	// tunerCooldown is how many epochs to hold after a change so the next
	// observation reflects the new parameters.
	tunerCooldown = 1
)

// TunerConfig parameterizes a Tuner. The zero value selects the defaults
// noted on each field.
type TunerConfig struct {
	// Cap is the starting deque capacity / refill batch, clamped to
	// [1, 512]. <= 0 selects 16.
	Cap int
	// Batch is the starting completion batch. <= 0 selects Cap/2 (min 1).
	Batch int
	// MgmtTarget is the lock-overhead share of capacity to steer toward
	// (<= 0 selects 0.02: an untuned batch-1 fine-grain run burns ~5% of
	// the machine on lock entry, so the trigger must sit well under
	// that). Above it the controller grows; the shrink rule only fires
	// below MgmtTarget*tunerLowBand.
	MgmtTarget float64
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.Cap <= 0 {
		c.Cap = 16
	}
	c.Cap = min(max(c.Cap, tunerMinCap), tunerMaxCap)
	if c.Batch <= 0 {
		c.Batch = c.Cap / 2
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.MgmtTarget <= 0 {
		c.MgmtTarget = 0.02
	}
	return c
}

// Tuner is the adaptive batching controller. Not safe for concurrent use;
// the event loop is its one caller.
type Tuner struct {
	cfg       TunerConfig
	cap       int
	batch     int
	cooldown  int
	shrinkArm bool // hoarded idle seen last epoch; shrink needs two in a row
	changes   int  // parameter changes made (diagnostics)
}

// NewTuner builds a Tuner from cfg (zero value = all defaults).
func NewTuner(cfg TunerConfig) *Tuner {
	c := cfg.withDefaults()
	return &Tuner{cfg: c, cap: c.Cap, batch: c.Batch}
}

// Cap returns the current deque capacity / refill batch size.
func (t *Tuner) Cap() int { return t.cap }

// Batch returns the current completion batch size.
func (t *Tuner) Batch() int { return t.batch }

// Changes reports how many parameter changes the tuner has made.
func (t *Tuner) Changes() int { return t.changes }

// Observe feeds one epoch: capacity is total machine time available
// (workers x elapsed); overhead is the amortizable lock-entry cost paid
// in the epoch (the Acquire charges — NOT total management time);
// hoardedIdle is the processor time spent parked while peer deques held
// redistributable tasks. All in one consistent unit. It returns the cap and
// batch to use for the next epoch and whether they changed.
func (t *Tuner) Observe(capacity, overhead, hoardedIdle int64) (cap, batch int, changed bool) {
	if capacity <= 0 {
		return t.cap, t.batch, false
	}
	if t.cooldown > 0 {
		t.cooldown--
		return t.cap, t.batch, false
	}
	overShare := float64(overhead) / float64(capacity)
	starveShare := float64(hoardedIdle) / float64(capacity)

	switch {
	case overShare > t.cfg.MgmtTarget:
		// Lock-entry overhead above target: workers visit the executive
		// too often — amortize more tasks per visit.
		t.shrinkArm = false
		changed = t.set(t.cap*2, t.batch*2)
	case starveShare > tunerIdleTarget && overShare < t.cfg.MgmtTarget*tunerLowBand:
		// Workers starve while peers sit on refilled tasks: hand work
		// out in smaller lots. The signal must persist two consecutive
		// epochs, so a one-epoch blip (a phase boundary, the final
		// drain) moves nothing.
		if t.shrinkArm {
			t.shrinkArm = false
			changed = t.set(t.cap/2, t.batch/2)
		} else {
			t.shrinkArm = true
		}
	default:
		t.shrinkArm = false
	}
	if changed {
		t.changes++
		t.cooldown = tunerCooldown
	}
	return t.cap, t.batch, changed
}

// set clamps and applies new parameters, reporting whether anything moved.
func (t *Tuner) set(cap, batch int) bool {
	cap = min(max(cap, tunerMinCap), tunerMaxCap)
	if batch < 1 {
		batch = 1
	}
	if batch > cap {
		batch = cap
	}
	if cap == t.cap && batch == t.batch {
		return false
	}
	t.cap, t.batch = cap, batch
	return true
}
