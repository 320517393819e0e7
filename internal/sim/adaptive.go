package sim

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// adaptive is the Adaptive management model — the batched-shard protocol
// of the deque-based sharded manager. Each worker's shard is tagged with
// the job its last refill pulled from, so the virtual-time pricing covers
// what sharded batching costs a tenant machine:
//
//   - a worker pops its local shard for free while tasks remain — the
//     whole point of batching — and the shard's tasks all belong to one
//     job (the tag);
//   - a refill visit FLUSHES the shard's completion batch to its job
//     before probing for new work, so a worker switching jobs can never
//     strand completions of the job it leaves (flush-before-switch);
//     the probe order is the engine's candidate walk, and a foreign
//     refill draws backfill credit for the whole pulled batch at pull
//     time;
//   - one Acquire covers the combined flush+refill visit (the visited
//     job's own Acquire cost — each job prices its own lock), and a visit
//     that flushed but found nothing to pull still pays it before the
//     worker parks;
//   - starvation is priced pool-wide: ONE hoarded-idle integral
//     (min(parked workers, hoarded tasks) over virtual time) and ONE
//     controller retune the shared batch knobs for the whole machine,
//     seeded from Config.Batch (<= 0 selects 16; the completion batch is
//     half the refill batch) and enabled by Options.AdaptiveBatch on any
//     job.
//
// Conservation holds by construction: a shard's pending tasks keep their
// job from finishing until the owning worker dispatches and completes
// them (and the worker never parks, and is never crashed, while its shard
// holds tasks), and a parked worker always has an empty shard — its last
// refill visit flushed the completion batch before giving up.
type adaptive struct {
	holdsNothing
	s     *mstate
	shard []mshard
	// batchN tasks per refill, cbatchN completions per flush.
	batchN, cbatchN int
	// The controller (nil = fixed batch) and its inputs: the Acquire
	// charges so far, the hoarded-task count and its idle integral up to
	// hiAt, and the totals at the last observation epoch.
	tuner        *Tuner
	acquireUnits int64
	hoardNow     int
	hiInt, hiAt  int64
	epochLen     int64
	lastObsAt    int64
	lastObsAcq   int64
	lastObsHI    int64
}

// mshard is one worker's local state under the Adaptive model: the job
// tag, the task buffer a refill filled (tasks[next:] still pending), the
// completion batch awaiting a flush, the NextTasks scratch, and whether
// the visit in progress flushed. The tag covers both buffers: a worker
// completes only tasks it dispatched from its own shard, and
// flush-before-switch empties the completion batch before the tag can
// change. buf and done are cut from the model's slab (adaptive.cut) with
// room for a whole batch, so neither grows; tasks is the last refill, in
// buf or in a slab a re-cut has since replaced.
type mshard struct {
	job     int
	tasks   []core.Task
	next    int
	done    []core.Task
	buf     []core.Task
	flushed bool
}

func newAdaptive(s *mstate, cfg Config, totalCost int64) model {
	b := cfg.Batch
	if b <= 0 {
		b = 16
	}
	m := &adaptive{s: s, batchN: b, cbatchN: b / 2, shard: make([]mshard, s.workers)}
	if m.cbatchN < 1 {
		m.cbatchN = 1
	}
	for _, j := range s.jobs {
		if j.spec.Opt.AdaptiveBatch {
			m.tuner = NewTuner(TunerConfig{
				Cap: b, MgmtTarget: j.spec.Opt.MgmtTarget,
			})
			m.batchN, m.cbatchN = m.tuner.Cap(), m.tuner.Batch()
			break
		}
	}
	for i := range m.shard {
		m.shard[i].job = -1
	}
	m.cut()
	// Observation epochs: aim for ~100 per run so the multiplicative
	// controller has room to travel and settle.
	m.epochLen = (totalCost/int64(s.workers) + 1) / 100
	if m.epochLen < 1 {
		m.epochLen = 1
	}
	if s.met != nil {
		s.met.BatchSize.Set(int64(m.batchN))
	}
	return m
}

// cut sizes every shard's refill buffer to the refill batch and its
// completion batch to the completion batch, all from one slab, keeping the
// completions a batch holds. The model cuts once when it is built, and
// again only when the controller raises a batch past what was cut.
func (m *adaptive) cut() {
	slab := make([]core.Task, len(m.shard)*(m.batchN+m.cbatchN))
	for i := range m.shard {
		sh := &m.shard[i]
		sh.buf, slab = slab[:0:m.batchN], slab[m.batchN:]
		sh.done, slab = append(slab[:0:m.cbatchN], sh.done...), slab[m.cbatchN:]
	}
}

// parking advances the pool-wide hoarded-idle integral to now. Call before
// any change to the parked count or the hoarded-task count; out-of-order
// event times only stall the frontier, never rewind it.
func (m *adaptive) parking(now int64) {
	if now <= m.hiAt {
		return
	}
	if m.s.parkedN > 0 && m.hoardNow > 0 {
		n := int64(m.s.parkedN)
		if int64(m.hoardNow) < n {
			n = int64(m.hoardNow)
		}
		m.hiInt += n * (now - m.hiAt)
	}
	m.hiAt = now
}

// maybeRetune feeds the shared controller one epoch of pool-wide
// virtual-time measurements when enough virtual time has passed: the
// Acquire charges are the amortizable lock overhead, and the hoarded-idle
// integral the starvation a smaller batch would have fed.
func (m *adaptive) maybeRetune(now int64) {
	if m.tuner == nil || now-m.lastObsAt < m.epochLen {
		return
	}
	s := m.s
	m.parking(now)
	capacity := (now - m.lastObsAt) * int64(s.workers)
	refill, batch, changed := m.tuner.Observe(capacity,
		m.acquireUnits-m.lastObsAcq, m.hiInt-m.lastObsHI)
	if changed {
		sh := &m.shard[0] // every shard is cut alike
		grown := refill > cap(sh.buf) || batch > cap(sh.done)
		m.batchN, m.cbatchN = refill, batch
		if grown {
			m.cut()
		}
		if s.tr != nil {
			s.tr.Record(trace.KRetune, now, -1, -1, -1, 0, 0, int64(refill))
		}
		if s.met != nil {
			s.met.Retunes.Inc(0)
			s.met.BatchSize.Set(int64(refill))
		}
	}
	m.lastObsAt = now
	m.lastObsAcq = m.acquireUnits
	m.lastObsHI = m.hiInt
}

// acquire charges job j's per-lock-visit Acquire cost on the server and
// accrues it as the controller's amortizable-overhead input.
func (m *adaptive) acquire(j *mjob, at int64) int64 {
	fin := m.s.serve(at, j.spec.Opt.Costs.Acquire)
	m.acquireUnits += int64(j.spec.Opt.Costs.Acquire)
	return fin
}

// flush applies shard sh's completion batch to its job through the
// serialized server and returns the finish time.
func (m *adaptive) flush(sh *mshard, at int64) int64 {
	fin := m.s.completeBatch(m.s.jobs[sh.job], sh.done, at)
	sh.done = sh.done[:0]
	return fin
}

// ask pops the local shard for free, or makes one serialized visit that
// flushes the shard's completion batch (to the job it belongs to) and then
// walks the candidates for the next refill.
func (m *adaptive) ask(w int, asked int64) {
	s := m.s
	sh := &m.shard[w]
	if sh.next < len(sh.tasks) {
		// Local shard pop: no management charge.
		task := sh.tasks[sh.next]
		sh.next++
		m.parking(asked)
		m.hoardNow--
		if s.met != nil {
			s.met.DispatchWait.Observe(0)
		}
		s.dispatch(w, sh.job, &s.jobs[sh.job].pol != s.pol.Home(w), task, asked)
		return
	}
	// Refill visit. Completions flush first (they may release the very
	// work the refill then pulls, and the worker may be about to switch
	// jobs); one Acquire covers the combined visit.
	at := asked
	if sh.flushed = len(sh.done) > 0; sh.flushed {
		at = m.flush(sh, at)
	}
	s.walk(w, asked, at)
}

// probe pulls one refill batch from job j into worker w's shard and hands
// over its first task; the batch's granules all draw on j's credit.
func (m *adaptive) probe(w int, j *mjob, at int64) (core.Task, int, int64, bool) {
	s := m.s
	sh := &m.shard[w]
	ts, dc := j.sched.NextTasks(sh.buf[:0], m.batchN)
	s.syncReady(j)
	at = s.serve(at, dc)
	if len(ts) == 0 {
		return core.Task{}, 0, at, false
	}
	at = m.acquire(j, at)
	drawn := 0
	for _, t := range ts {
		drawn += t.Run.Len()
	}
	m.maybeRetune(at)
	// Wake after the refill: the visit's flush (and NextTasks' liveness
	// fallback) can release work beyond what this worker's batch took,
	// and parked peers must see it.
	s.wake(at)
	sh.job = j.pol.ID
	sh.tasks, sh.next = ts, 1
	m.parking(at)
	m.hoardNow += len(ts) - 1
	return ts[0], drawn, at, true
}

func (m *adaptive) dry(w int, at int64) int64 {
	if sh := &m.shard[w]; sh.flushed {
		at = m.acquire(m.s.jobs[sh.job], at)
		m.maybeRetune(at)
		m.s.wake(at)
	}
	return at
}

// complete accumulates a completion in the worker's shard, flushing it
// through one serialized visit when the completion batch fills. The
// shard's tag already names the completing job — a worker has one
// outstanding task, dispatched from its own shard.
func (m *adaptive) complete(w int, j *mjob, at int64) {
	s := m.s
	f := &s.worker[w].flight
	sh := &m.shard[w]
	sh.done = append(sh.done, f.task)
	if len(sh.done) >= m.cbatchN {
		at = m.acquire(j, at)
		at = m.flush(sh, at)
		m.maybeRetune(at)
		s.wake(at)
	} else {
		// Batched: the completion waits in the shard at no management
		// charge; the phase still saw the event.
		j.phaseEnd(f.task.Phase, at)
	}
	// The worker asks for new work once its completion is handed off.
	s.pushAsk(at, w)
}

func (m *adaptive) holds(w int) bool { return m.shard[w].next < len(m.shard[w].tasks) }

func (m *adaptive) release(w int, at int64) int64 {
	if sh := &m.shard[w]; len(sh.done) > 0 {
		at = m.acquire(m.s.jobs[sh.job], at)
		at = m.flush(sh, at)
		m.s.wake(at)
	}
	return at
}

func (m *adaptive) drop(ji int, at int64) {
	m.parking(at)
	for w := range m.shard {
		sh := &m.shard[w]
		if sh.job != ji {
			continue
		}
		m.hoardNow -= len(sh.tasks) - sh.next
		sh.job = -1
		sh.tasks = sh.tasks[:0]
		sh.next = 0
		sh.done = sh.done[:0]
	}
}

func (m *adaptive) held(ji int) int {
	n := 0
	for w := range m.shard {
		if sh := &m.shard[w]; sh.job == ji {
			n += len(sh.tasks) - sh.next + len(sh.done)
		}
	}
	return n
}

func (m *adaptive) batch() (int, int) {
	if m.tuner == nil {
		return m.batchN, 0
	}
	return m.batchN, m.tuner.Changes()
}
