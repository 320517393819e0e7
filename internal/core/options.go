package core

import "fmt"

// SplitPolicy selects when computation descriptions are split into
// worker-sized tasks.
type SplitPolicy uint8

const (
	// SplitDemand splits a description when an idle worker presents
	// itself — PAX's choice: "computation splitting was demand-driven by
	// the presence of an idle worker."
	SplitDemand SplitPolicy = iota
	// SplitPre splits every description into grain-sized tasks at phase
	// activation: "presplit the tasks before idle workers present
	// themselves ... allow the executive to work ahead in otherwise idle
	// time." The split cost is paid up front on the management resource.
	SplitPre
)

func (p SplitPolicy) String() string {
	switch p {
	case SplitDemand:
		return "demand"
	case SplitPre:
		return "presplit"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", uint8(p))
	}
}

// SuccSplitMode selects how queued successor descriptions (identity-mapped
// overlap implemented via conflict queues) are split when their enabling
// current-phase description is split.
type SuccSplitMode uint8

const (
	// SuccSplitInline splits the queued successor description at the same
	// moment the current description is split, on the dispatch path. The
	// paper worries the "additional delays of splitting queued successor
	// computation descriptions may represent an unacceptable situation."
	SuccSplitInline SuccSplitMode = iota
	// SuccSplitDeferred detaches the successor description and enqueues a
	// successor-splitting management task "that could be quickly queued
	// for later attention when the executive would again be idle."
	SuccSplitDeferred
)

func (m SuccSplitMode) String() string {
	switch m {
	case SuccSplitInline:
		return "inline"
	case SuccSplitDeferred:
		return "deferred"
	default:
		return fmt.Sprintf("SuccSplitMode(%d)", uint8(m))
	}
}

// IdentityMode selects the mechanism implementing identity-mapped overlap.
type IdentityMode uint8

const (
	// IdentityConflictQueue queues successor descriptions on the conflict
	// ring of the matching current-phase descriptions, PAX's native
	// mechanism: "the successor phase is also initiated and the resulting
	// computation description placed in the conflicted computation queue
	// of the current phase description."
	IdentityConflictQueue IdentityMode = iota
	// IdentityTable releases identity-mapped granules through the same
	// enablement-counter table used by indirect mappings. Scheduling
	// results are identical; the management cost profile differs.
	IdentityTable
)

func (m IdentityMode) String() string {
	switch m {
	case IdentityConflictQueue:
		return "conflict-queue"
	case IdentityTable:
		return "table"
	default:
		return fmt.Sprintf("IdentityMode(%d)", uint8(m))
	}
}

// Options configures the scheduler.
type Options struct {
	// Workers is the number of processors the driver will run. The
	// scheduler uses it only for defaults (grain, subset size).
	Workers int
	// Grain is the maximum number of granules per task. <=0 selects a
	// default of ceil(maxPhaseGranules / (2*Workers)), honouring the
	// paper's "at least two tasks for each processor" outset condition.
	Grain int
	// Overlap enables phase overlap. False reproduces the strict
	// barrier-per-phase baseline.
	Overlap bool
	// Split selects the description-splitting policy.
	Split SplitPolicy
	// SuccSplit selects inline vs deferred successor-description splitting
	// (conflict-queue identity mode only).
	SuccSplit SuccSplitMode
	// IdentityVia selects the identity-mapping mechanism.
	IdentityVia IdentityMode
	// ReleasedAhead, when true, queues released successor work ahead of
	// normal current-phase work, the priority PAX gave conflict-released
	// computations ("placed ahead of the normal computations in the
	// queue"). The default (false) queues released successor work behind
	// current-phase work, matching the paper's placement of overlapped
	// successors "behind the current phase description"; the ahead
	// variant delays the enabling current-phase tail and is kept as an
	// ablation (see experiment E6).
	ReleasedAhead bool
	// Elevate raises the queue priority of current-phase granules that
	// enable the planned successor subset of an indirect mapping.
	Elevate bool
	// InlineMaps builds indirect composite granule maps inline at phase
	// initiation instead of deferring construction to executive idle
	// time. This is the naive strategy the paper warns about ("extensive
	// composite granule map generation could be self defeating"): the
	// build blocks the serial executive while every processor waits.
	// Kept as an ablation; the default defers and cancels.
	InlineMaps bool
	// SubsetSize is the size of the successor-phase subset targeted by
	// indirect-mapping enablement planning. <=0 selects a default of
	// 2*Workers granules ("avoid solving an unnecessarily large
	// enablement problem").
	SubsetSize int
	// AdaptiveBatch enables online retuning of the simulator's
	// Adaptive-model refill batch from the observed
	// computation-to-management ratio each refill epoch, instead of the
	// fixed default. The scheduler state machine itself ignores it, and so
	// do the goroutine managers; internal/sim consumes it.
	AdaptiveBatch bool
	// MgmtTarget is the amortizable lock-overhead share of machine
	// capacity the adaptive controller steers toward (the paper's E5
	// ratio turned into a feedback setpoint). <= 0 selects 0.02.
	// Ignored unless AdaptiveBatch.
	MgmtTarget float64
	// Costs prices the management operations.
	Costs MgmtCosts
}

// withDefaults fills derived defaults given the program.
func (o Options) withDefaults(p *Program) Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Grain <= 0 {
		maxG := 1
		for _, ph := range p.Phases {
			if ph.Granules > maxG {
				maxG = ph.Granules
			}
		}
		o.Grain = (maxG + 2*o.Workers - 1) / (2 * o.Workers)
		if o.Grain < 1 {
			o.Grain = 1
		}
	}
	if o.SubsetSize <= 0 {
		o.SubsetSize = 2 * o.Workers
	}
	return o
}

// CapGrain applies a preemption bound to a job's options: the task grain
// — the largest non-preemptible unit a worker can hold, and therefore the
// longest a home job emerging from rundown can wait behind an in-flight
// foreign grain — is capped at bound granules (<= 0 = no cap). An unset
// Grain is materialized to its default for p first, so the cap composes
// with the default instead of replacing it.
func (o Options) CapGrain(p *Program, bound int) Options {
	if bound <= 0 {
		return o
	}
	if o.Grain <= 0 {
		o.Grain = o.withDefaults(p).Grain
	}
	if o.Grain > bound {
		o.Grain = bound
	}
	return o
}

// Backoff is the capped exponential retry backoff every backend applies,
// in its own time unit: the first retry (attempt 2; attempts count from
// 1) waits base, each further retry doubles it, capped at 64× base.
func Backoff[T ~int64](base T, attempt int) T {
	if base <= 0 {
		return 0
	}
	return base << min(max(attempt-2, 0), 6)
}

// ReadyBounds is the asynchronous executive's ready-buffer sizing every
// backend applies. A capacity <= 0 takes def floored at 8 — about two
// buffered tasks per processor keeps everyone fed across a refill, the
// paper's outset condition applied to the buffer. A low-water mark <= 0
// takes a quarter of the capacity floored at 1, and the mark always stays
// below the capacity.
func ReadyBounds(capacity, lowWater, def int) (int, int) {
	if capacity <= 0 {
		capacity = max(def, 8)
	}
	if lowWater <= 0 {
		lowWater = max(capacity/4, 1)
	}
	return capacity, min(lowWater, capacity-1)
}
