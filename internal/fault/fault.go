// Package fault is the deterministic fault-injection layer: a seeded
// Spec of failure Rules compiled into a per-run Plan that every backend
// consults at the same chokepoints — the simulator in virtual time
// (bit-identical outcomes per seed), the tenant pool's goroutines on real
// hardware (same rules, wall-clock delays).
//
// Three fault levels mirror where a rundown can rot:
//
//   - grain faults strike one granule's task: panic, error, stall-for-D,
//     or slowdown×k. They are keyed on (job, phase, granule), not on task
//     boundaries, so the same Spec hits the same logical work no matter
//     how a backend carved tasks.
//   - worker faults strike one processor: crash (stops taking work after
//     finishing the task in hand), wedge (the completion in hand is
//     withheld for D — or, on the real pool, until released), slow
//     (every task it runs is stretched ×k).
//   - management faults strike the executive itself: a completion's
//     submission to management is delayed by D, or a wakeup of parked
//     workers is dropped (the engines recover deterministically; the
//     fault prices the recovery, it must never hang the run).
//
// A Plan is stateful — each Rule carries a firing budget consumed
// atomically — so compile a fresh Plan per run; the Spec itself is
// immutable and reusable.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enum"
	"repro/internal/granule"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// GrainPanic makes the work function of the matched granule's task
	// panic (real backends go through executive.RunTask's recover;
	// virtual backends price the same per-job failure).
	GrainPanic Kind = 1 + iota
	// GrainError fails the matched granule's task with an injected error.
	GrainError
	// GrainStall withholds the matched task's completion for Delay units
	// (the task's compute cost is unchanged — a stuck grain, not a slow
	// one).
	GrainStall
	// GrainSlow stretches the matched task's compute by ×Factor.
	GrainSlow
	// WorkerCrash retires the matched worker after the task in hand: it
	// never asks for work again (graceful capacity loss — no task is
	// lost, the survivors absorb the load).
	WorkerCrash
	// WorkerWedge withholds the matched worker's next completion: for
	// Delay units in virtual time; on the real pool the worker blocks
	// until the Plan is released (Pool.Close), so only a stall probe or
	// deadline can fail the wedged job.
	WorkerWedge
	// WorkerSlow stretches every task the matched worker runs by ×Factor:
	// the default budget is unlimited (a slow worker stays slow); set
	// Count explicitly to bound the number of stretched tasks.
	WorkerSlow
	// MgmtDelay delays the matched job's next completion submission to
	// management by Delay units.
	MgmtDelay
	// DropWakeup makes the next wakeup of parked workers vanish. The
	// engines must recover (re-wake on their watchdog/queue-empty probe);
	// the fault exists to prove they do.
	DropWakeup

	kindCount
)

// kinds is Kind's name table: a Spec on the service daemon's wire
// carries fault kinds by name, never by number, so reordering the
// constants can never silently change a stored campaign.
var kinds = enum.New("fault kind", GrainPanic, [][]string{
	{"grain-panic"}, {"grain-error"}, {"grain-stall"}, {"grain-slow"},
	{"worker-crash"}, {"worker-wedge"}, {"worker-slow"}, {"mgmt-delay"}, {"drop-wakeup"},
})

func (k Kind) String() string { return kinds.String(k) }

// ParseKind resolves a kind's string name (the Kind.String form).
func ParseKind(s string) (Kind, error) { return kinds.Parse(s) }

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return kinds.Marshal(k) }

// UnmarshalJSON decodes a kind from its string name (or the numeric enum
// value).
func (k *Kind) UnmarshalJSON(b []byte) error { return kinds.Unmarshal(b, k) }

// Rule is one injection: what to break, where, how hard, how often.
// The json tags pin the wire schema the service daemon accepts; Kind
// marshals as its string name. Job, Phase and Worker use -1 for "any",
// so they are never omitted (0 is a valid scope).
type Rule struct {
	Kind Kind `json:"kind"`
	// Job and Phase scope grain and management faults (-1 = any). Grain
	// faults additionally require Granule to fall inside the task's
	// range, so the rule keys on logical work, not task carving.
	Job     int    `json:"job"`
	Phase   int    `json:"phase"`
	Granule uint32 `json:"granule"`
	// Worker scopes worker faults (-1 = any worker).
	Worker int `json:"worker"`
	// After is the earliest firing time: virtual units in the simulator,
	// nanoseconds since run start on real backends. Zero fires from the
	// outset. DropWakeup rules ignore After — they strike the next
	// wakeup, whenever it comes.
	After int64 `json:"after,omitempty"`
	// Delay is the stall/wedge/management-delay length in virtual units
	// (real backends scale with Sleep).
	Delay int64 `json:"delay,omitempty"`
	// Factor is the GrainSlow/WorkerSlow stretch (clamped to
	// [2, MaxFactor] — grain and worker stretches compound on one
	// dispatch, and an unbounded factor could overflow a virtual
	// duration).
	Factor int64 `json:"factor,omitempty"`
	// Count is the firing budget; <= 0 means once, except WorkerSlow,
	// where it means unlimited.
	Count int `json:"count,omitempty"`
}

// UnmarshalJSON decodes a rule strictly. It refuses a rule without a
// kind — the zero Kind names no fault, and no encoder could write the
// rule back — and a field Rule does not have: an outer decoder's
// DisallowUnknownFields (the daemon's submit body) does not reach into a
// type with its own decoder.
func (r *Rule) UnmarshalJSON(b []byte) error {
	type wire Rule // Rule's fields without this method
	var w wire
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	if w.Kind == 0 {
		return errors.New("fault: rule has no kind")
	}
	*r = Rule(w)
	return nil
}

// Spec is a complete, immutable injection campaign: compile with New for
// each run that should suffer it.
type Spec struct {
	// Seed labels the campaign (Scenario derives the Rules from it); it
	// has no effect on an explicit Rules list.
	Seed uint64 `json:"seed,omitempty"`
	// Rules are the injections, consulted in order.
	Rules []Rule `json:"rules"`
}

// prule is a compiled rule with its remaining firing budget.
type prule struct {
	Rule
	left atomic.Int64
}

// Plan is one run's compiled, consumable fault state. All methods are
// safe for concurrent use; a nil *Plan is inert (every query misses), so
// backends hold a possibly-nil Plan and pay one branch when injection is
// off.
//
// The rule set is copy-on-write: queries load an immutable snapshot with
// one atomic read, and Extend (the dynamic-plan path) swaps in a fresh
// slice under extendMu — so a long-lived plan in a service daemon can
// grow while workers consult it.
type Plan struct {
	rules    atomic.Pointer[[]*prule]
	timed    atomic.Bool // some rule has an After
	fired    [kindCount]atomic.Int64
	injected atomic.Int64

	extendMu sync.Mutex
	release  chan struct{}
	once     sync.Once
}

// ruleSet is the query-side snapshot of the rules.
func (p *Plan) ruleSet() []*prule {
	if v := p.rules.Load(); v != nil {
		return *v
	}
	return nil
}

// MaxFactor caps a slow-fault stretch. GrainSlow and WorkerSlow factors
// compound on one dispatch, so the cap keeps even a compounded stretch of
// a large virtual duration far from int64 overflow (a wrapped negative
// duration would push a completion behind its dispatch).
const MaxFactor = 1 << 16

// unbounded is the effectively-infinite firing budget of a default
// WorkerSlow rule: consume decrements it, so it sits far below MaxInt64
// yet beyond any realistic firing count.
const unbounded = int64(1) << 62

// New compiles spec into a fresh Plan. A nil return (empty spec) keeps
// the disabled fast path a single nil check.
func New(spec Spec) *Plan {
	if len(spec.Rules) == 0 {
		return nil
	}
	p := &Plan{release: make(chan struct{})}
	rs := make([]*prule, len(spec.Rules))
	for i, r := range spec.Rules {
		rs[i] = p.compileRule(r)
	}
	p.rules.Store(&rs)
	return p
}

// NewDynamic compiles spec like New but always returns a non-nil Plan —
// even an empty one — that accepts further rules via Extend: the
// service daemon's staging hook, where a fault campaign arrives with a
// job submitted to an already-running pool.
func NewDynamic(spec Spec) *Plan {
	if p := New(spec); p != nil {
		return p
	}
	p := &Plan{release: make(chan struct{})}
	rs := []*prule{}
	p.rules.Store(&rs)
	return p
}

// Extend appends compiled rules to the live plan. Queries in flight keep
// their snapshot; dispatches after Extend returns see the new rules.
func (p *Plan) Extend(rules []Rule) {
	if len(rules) == 0 {
		return
	}
	p.extendMu.Lock()
	old := p.ruleSet()
	rs := make([]*prule, 0, len(old)+len(rules))
	rs = append(rs, old...)
	for _, r := range rules {
		rs = append(rs, p.compileRule(r))
	}
	p.rules.Store(&rs)
	p.extendMu.Unlock()
}

// Timed reports whether some rule has an After, so a query's time matters:
// a caller that reads a clock only for the plan skips the reading when it
// does not. Extend may turn it on, never off.
func (p *Plan) Timed() bool { return p.timed.Load() }

// compileRule clamps and budgets one rule of p.
func (p *Plan) compileRule(r Rule) *prule {
	if r.After > 0 {
		p.timed.Store(true)
	}
	if r.Kind == GrainSlow || r.Kind == WorkerSlow {
		if r.Factor < 2 {
			r.Factor = 2
		}
		if r.Factor > MaxFactor {
			r.Factor = MaxFactor
		}
	}
	left := int64(r.Count)
	if r.Count <= 0 {
		if r.Kind == WorkerSlow {
			left = unbounded
		} else {
			r.Count = 1
			left = 1
		}
	}
	pr := &prule{Rule: r}
	pr.left.Store(left)
	return pr
}

// consume takes one firing from rule r, recording the injection. It
// reports false when the budget is exhausted (concurrent callers race
// the decrement; losers see a negative residue and never fire).
func (p *Plan) consume(r *prule) bool {
	if r.left.Add(-1) < 0 {
		return false
	}
	p.fired[r.Kind].Add(1)
	p.injected.Add(1)
	return true
}

// Grain consults the grain-level rules for a task covering granules
// [lo, hi) of (job, phase), dispatched at time at. It returns the fired
// rule's kind (0 = no fault), its Delay, and its Factor.
func (p *Plan) Grain(job, phase int, lo, hi uint32, at int64) (Kind, int64, int64) {
	if p == nil {
		return 0, 0, 0
	}
	for _, r := range p.ruleSet() {
		switch r.Kind {
		case GrainPanic, GrainError, GrainStall, GrainSlow:
		default:
			continue
		}
		if r.Job >= 0 && r.Job != job {
			continue
		}
		if r.Phase >= 0 && r.Phase != phase {
			continue
		}
		if r.Granule < lo || r.Granule >= hi {
			continue
		}
		if at < r.After {
			continue
		}
		if !p.consume(r) {
			continue
		}
		return r.Kind, r.Delay, r.Factor
	}
	return 0, 0, 0
}

// Worker consults the worker-level rules of kind k for worker w at time
// at. It returns the fired rule's Delay and Factor.
func (p *Plan) Worker(w int, at int64, k Kind) (int64, int64, bool) {
	if p == nil {
		return 0, 0, false
	}
	for _, r := range p.ruleSet() {
		if r.Kind != k {
			continue
		}
		if r.Worker >= 0 && r.Worker != w {
			continue
		}
		if at < r.After {
			continue
		}
		if !p.consume(r) {
			continue
		}
		return r.Delay, r.Factor, true
	}
	return 0, 0, false
}

// Effects is what the worker- and grain-level rules do to one dispatch.
// The zero value is no fault.
type Effects struct {
	// Factor is the compute stretch, WorkerSlow × GrainSlow (1 = none).
	Factor int64
	// Stall is how long the completion is withheld (GrainStall), in units.
	Stall int64
	// Wedged reports that a WorkerWedge rule fired and Wedge is its Delay:
	// the withhold in virtual time; the pool gates the completion on
	// Plan.Release instead, under its watchdog.
	Wedged bool
	Wedge  int64
	// Grain is the grain-level kind that fired (0 = none). GrainSlow and
	// GrainStall are already folded into Factor and Stall; GrainPanic and
	// GrainError are the caller's to turn into its own failure.
	Grain Kind
	// Crash reports that a WorkerCrash rule fired: the worker retires after
	// this task's completion is submitted. Set by DispatchCrash only.
	Crash bool
}

// Dispatch is the one consultation a backend makes per dispatched task:
// worker w takes granules [lo, hi) of (job, phase) at time at. Rules fire
// in a fixed order — WorkerSlow, WorkerWedge, then the first matching
// grain rule — and note is called once per firing, in that order, for the
// backend's KFault record.
func (p *Plan) Dispatch(w, job, phase int, lo, hi uint32, at int64, note func(Kind)) Effects {
	fx := Effects{Factor: 1}
	if _, f, ok := p.Worker(w, at, WorkerSlow); ok {
		note(WorkerSlow)
		fx.Factor *= f
	}
	if d, _, ok := p.Worker(w, at, WorkerWedge); ok {
		note(WorkerWedge)
		fx.Wedged, fx.Wedge = true, d
	}
	k, d, f := p.Grain(job, phase, lo, hi, at)
	if k == 0 {
		return fx
	}
	note(k)
	fx.Grain = k
	switch k {
	case GrainSlow:
		fx.Factor *= f
	case GrainStall:
		fx.Stall = d
	}
	return fx
}

// DispatchCrash is Dispatch for a backend whose workers can be lost at the
// dispatch chokepoint (the tenant pool): the same consultation also
// carries the WorkerCrash verdict. The simulator consults WorkerCrash at
// its own chokepoint, the ask. The caller notes the crash itself once it
// has decided to honour it — the last live worker refuses.
func (p *Plan) DispatchCrash(w, job, phase int, lo, hi uint32, at int64, note func(Kind)) Effects {
	fx := p.Dispatch(w, job, phase, lo, hi, at, note)
	_, _, fx.Crash = p.Worker(w, at, WorkerCrash)
	return fx
}

// Mgmt consults the MgmtDelay rules for job's completion submitted at
// time at. It returns the fired rule's Delay.
func (p *Plan) Mgmt(job int, at int64) (int64, bool) {
	if p == nil {
		return 0, false
	}
	for _, r := range p.ruleSet() {
		if r.Kind != MgmtDelay {
			continue
		}
		if r.Job >= 0 && r.Job != job {
			continue
		}
		if at < r.After {
			continue
		}
		if !p.consume(r) {
			continue
		}
		return r.Delay, true
	}
	return 0, false
}

// DropWakeup reports whether the next wakeup should vanish.
func (p *Plan) DropWakeup() bool {
	if p == nil {
		return false
	}
	for _, r := range p.ruleSet() {
		if r.Kind == DropWakeup && p.consume(r) {
			return true
		}
	}
	return false
}

// Release returns the channel real-backend wedges block on; it is closed
// by ReleaseAll. Nil-safe for select-free call sites only when the Plan
// is non-nil — wedges only exist under a Plan.
func (p *Plan) Release() <-chan struct{} { return p.release }

// ReleaseAll unblocks every wedged worker (idempotent). The tenant pool
// calls it at Close so teardown is hang-free even when a wedge was never
// resolved by a stall probe or deadline.
func (p *Plan) ReleaseAll() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.release) })
}

// Injected reports the total firings so far.
func (p *Plan) Injected() int64 {
	if p == nil {
		return 0
	}
	return p.injected.Load()
}

// Fired reports the firings of one kind.
func (p *Plan) Fired(k Kind) int64 {
	if p == nil || k >= kindCount {
		return 0
	}
	return p.fired[k].Load()
}

// maxSleep caps real-backend injected delays so a campaign can never turn
// a test suite into a sleep marathon.
const maxSleep = 50 * time.Millisecond

// Sleep converts an injected virtual delay to a bounded real-backend
// sleep (1 unit = 1µs, capped at 50ms) and sleeps it.
func Sleep(units int64) {
	if units <= 0 {
		return
	}
	d := time.Duration(units) * time.Microsecond
	if d > maxSleep {
		d = maxSleep
	}
	time.Sleep(d)
}

// Stretch sleeps the slow-fault extension of a task that just ran for
// dur — inside the worker's compute-measurement window, so a slow grain
// or worker shows up as inflated compute exactly as in virtual time.
func Stretch(dur time.Duration, factor int64) {
	if factor > 1 {
		Sleep(int64(dur) * (factor - 1) / int64(time.Microsecond))
	}
}

// PanicWork is the work body a real backend substitutes for a granule
// struck by GrainPanic: the failure goes through the worker loop's own recover.
func PanicWork(phase granule.PhaseID) func(granule.ID) {
	return func(granule.ID) {
		panic(fmt.Sprintf("fault: injected panic in phase %d", phase))
	}
}
