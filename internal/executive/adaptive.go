package executive

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
//   - lock-starvation share above its target, two epochs in a row ->
//     double cap and batch. The overhead share is measured against
//     machine capacity (workers x elapsed), so at large P a saturated
//     global lock reads as cheap: the waiters park on the condition
//     variable instead of spinning on the mutex, and their wait lands in
//     idle, not in lock-acquisition time. The second grow input closes
//     that hole — processor time spent parked while another worker
//     actively occupied the management path is starvation that a bigger
//     batch (fewer, larger lock visits) relieves, and it scales with P
//     where the overhead share does not. Because it is inferred from
//     park timing rather than measured directly, it carries the same
//     two-epoch persistence gate as the shrink rule.
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
//     a starvation signal must persist two consecutive epochs, and a
//     cooldown epoch follows every change, so a steady workload settles
//     and stays put.
//
// The Tuner is deterministic and unit-agnostic: an epoch is total machine
// capacity (workers x elapsed) plus the lock-overhead and hoarded-idle
// shares of it. Its one driver is the discrete-event simulator's Adaptive
// model, in virtual units (E12 prices it). The goroutine sharded manager
// runs fixed parameters: its workers park in the pool, above the manager,
// where the shrink and starvation inputs cannot be measured, and no
// hardware benchmark separated the controller from fixed sharded.

// The controller's fixed parameters. Nothing ever set them to anything
// else, so they are constants, not configuration.
const (
	// tunerMinCap and tunerMaxCap bound the deque capacity.
	tunerMinCap, tunerMaxCap = 1, 512
	// tunerIdleTarget is the hoarded-idle share (parked time overlapping
	// nonempty peer deques) above which — overhead being cheap — the
	// controller shrinks.
	tunerIdleTarget = 0.25
	// tunerStarveTarget is the lock-starvation share (parked time
	// overlapping another worker's occupation of the management path)
	// above which the controller grows even though the measured
	// acquisition overhead reads cheap — the large-P saturation signal.
	tunerStarveTarget = 0.2
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
// callers serialize Observe (the simulator is single-threaded).
type Tuner struct {
	cfg       TunerConfig
	cap       int
	batch     int
	cooldown  int
	shrinkArm bool // hoarded idle seen last epoch; shrink needs two in a row
	starveArm bool // lock starvation seen last epoch; that grow needs two in a row
	epochs    int  // observations consumed (diagnostics)
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

// Epochs and Changes report how many observations the tuner has consumed
// and how many parameter changes it has made.
func (t *Tuner) Epochs() int  { return t.epochs }
func (t *Tuner) Changes() int { return t.changes }

// Observe feeds one epoch: capacity is total machine time available
// (workers x elapsed); overhead is the amortizable lock-entry cost paid
// in the epoch (lock acquisition time on hardware, Acquire charges in the
// simulator — NOT total management time); hoardedIdle is the processor
// time spent parked while peer deques held redistributable tasks;
// starved is the processor time spent parked while another worker
// occupied the management path (the large-P lock-saturation signal —
// drivers without the measurement pass 0). All in one consistent unit. It
// returns the cap and batch to use for the next epoch and whether they
// changed.
func (t *Tuner) Observe(capacity, overhead, hoardedIdle, starved int64) (cap, batch int, changed bool) {
	if capacity <= 0 {
		return t.cap, t.batch, false
	}
	t.epochs++
	if t.cooldown > 0 {
		t.cooldown--
		return t.cap, t.batch, false
	}
	overShare := float64(overhead) / float64(capacity)
	starveShare := float64(hoardedIdle) / float64(capacity)
	lockShare := float64(starved) / float64(capacity)

	switch {
	case overShare > t.cfg.MgmtTarget:
		// Lock-entry overhead above target: workers visit the executive
		// too often — amortize more tasks per visit.
		t.shrinkArm, t.starveArm = false, false
		changed = t.set(t.cap*2, t.batch*2)
	case starveShare > tunerIdleTarget && overShare < t.cfg.MgmtTarget*tunerLowBand:
		// Workers starve while peers sit on refilled tasks: hand work
		// out in smaller lots. The signal must persist two consecutive
		// epochs, so a one-epoch blip (a phase boundary, the final
		// drain) moves nothing. Hoarded idle takes precedence over lock
		// starvation below: tasks provably sat in peer deques, so
		// redistribution, not amortization, is the remedy.
		t.starveArm = false
		if t.shrinkArm {
			t.shrinkArm = false
			changed = t.set(t.cap/2, t.batch/2)
		} else {
			t.shrinkArm = true
		}
	case lockShare > tunerStarveTarget && starveShare <= tunerIdleTarget:
		// Workers park behind a busy management path while the measured
		// acquisition overhead reads ~0 (they wait on the condition
		// variable, not the mutex, so their time never lands in
		// overhead). The lock is saturated at this P: amortize more
		// tasks per visit, exactly as the overhead rule would have done
		// had it been able to see the wait. Hoarded idle above its
		// target vetoes this grow outright — tasks provably sat in peer
		// deques, so a bigger refill would deepen the starvation even
		// when the shrink rule's own overhead guard keeps it from
		// firing. Like the shrink rule — and unlike the
		// directly-measured overhead rule — this signal is inferred
		// from park timing, so it must persist two consecutive epochs
		// before it moves anything.
		t.shrinkArm = false
		if t.starveArm {
			t.starveArm = false
			changed = t.set(t.cap*2, t.batch*2)
		} else {
			t.starveArm = true
		}
	default:
		t.shrinkArm, t.starveArm = false, false
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
