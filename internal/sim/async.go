package sim

import "repro/internal/core"

// async is the Async management model: the Dedicated model (a separate
// executive processor beside all P workers, outside the utilization
// denominator) extended with the async executive's ready-buffer protocol,
// kept per job on ONE shared dedicated server, so the virtual-time pricing
// follows what internal/executive's AsyncManager does on hardware and what
// it would cost a tenant machine:
//
//   - the server keeps a bounded ready buffer PER JOB, topped up with
//     batched NextTasks pulls charged on the server's serialized lane.
//     Config.ReadyCap is each job's bound; <= 0 splits a whole-machine
//     default of 2*workers slots across the jobs (minimum 8 each), so
//     aggregate buffering does not grow with the job count. That is the
//     model's own default: the hardware manager's is 16 per worker
//     (DESIGN.md §3.4 names the difference). Config.LowWater <= 0
//     selects a quarter of the bound (minimum 1), and is kept below it;
//   - a worker's ask pops the first non-empty buffer of the engine's
//     candidate walk for free — the hardware ready-buffer steal, so worker
//     latency is decoupled from management service. A dry candidate gets
//     one top-up attempt, charged to the server, not the worker (the
//     background server is always running; the ask is just the moment
//     virtual time can observe it), and only a buffer still dry after
//     that sends the walk on — so a dry walk costs the worker nothing;
//   - each buffered task carries the virtual time the server finished
//     producing it (never earlier than its job's openAt serial gate), and
//     a dispatch starts no earlier than that — production time, not
//     server availability, is what a worker waits on;
//   - completions queue per job and are applied in fused CompleteBatch
//     drains whenever the server has caught up — under load they
//     accumulate, exactly like the MPSC queue backing up behind a busy
//     management goroutine, which is where completion-batch fusion pays
//     (last resort: the engine drains the backlog when no worker event is
//     left to trigger one);
//   - deferred management is absorbed on the server whenever a job's
//     buffer is above the low-water mark, on top of the engine's generic
//     idle-executive absorption.
//
// Conservation holds by construction: a job cannot reach Done while any
// of its tasks sit buffered (they have not completed), and a buffered
// task can always be claimed — wake counts buffered tasks as
// availability, and a worker parked behind a serial gate schedules its
// own reopen retry.
type async struct {
	holdsNothing
	s *mstate
	// jobs is each job's slice of the server, indexed like mstate.jobs.
	jobs               []asyncJob
	readyCap, lowWater int
	// buffered is the pool-wide buffered-task count.
	buffered int
}

// asyncJob is one job's slice of the dedicated server: its ready buffer
// (tasks already pulled from the job's scheduler), the completions queued
// behind the server, and the NextTasks scratch. Both buffers are cut from
// the model's slabs, so neither grows: the scratch holds ReadyCap tasks,
// the most one top-up pulls, and the ready buffer twice that, so the fifo
// compacts its live slots (at most ReadyCap) at most once per ReadyCap
// pushes.
type asyncJob struct {
	ready fifo[asyncSlot]
	comp  []core.Task
	buf   []core.Task
}

// asyncSlot is one ready-buffer entry: a task plus the virtual time the
// server finished producing it.
type asyncSlot struct {
	task core.Task
	at   int64
}

func newAsync(s *mstate, cfg Config, _ int64) model {
	rc, lw := core.ReadyBounds(cfg.ReadyCap, cfg.LowWater, 2*s.workers/len(s.jobs))
	m := &async{s: s, jobs: make([]asyncJob, len(s.jobs)), readyCap: rc, lowWater: lw}
	bufs, slots := make([]core.Task, len(m.jobs)*rc), make([]asyncSlot, len(m.jobs)*2*rc)
	for ji := range m.jobs {
		aj := &m.jobs[ji]
		aj.buf, bufs = bufs[:0:rc], bufs[rc:]
		aj.ready.buf, slots = slots[:0:2*rc], slots[2*rc:]
	}
	return m
}

// noteOccupancy publishes the buffered-task count.
func (m *async) noteOccupancy() {
	if m.s.met != nil {
		m.s.met.ReadyOccupancy.Set(int64(m.buffered))
	}
}

// topUp pulls one batched NextTasks refill into job j's buffer, charging
// the server and stamping each slot with its production time (clamped to
// the job's serial-gate reopening, so a gated phase's tasks cannot start
// early). It reports whether anything was buffered.
func (m *async) topUp(j *mjob, now int64) bool {
	if j.done {
		return false
	}
	aj := &m.jobs[j.pol.ID]
	free := m.readyCap - aj.ready.len()
	if free <= 0 {
		return false
	}
	ts, dc := j.sched.NextTasks(aj.buf[:0], free)
	m.s.syncReady(j)
	fin := m.s.serve(now, dc)
	stamp := fin
	if j.openAt > stamp {
		stamp = j.openAt
	}
	for _, task := range ts {
		aj.ready.push(asyncSlot{task: task, at: stamp})
	}
	aj.buf = ts[:0]
	m.buffered += len(ts)
	if len(ts) > 0 {
		m.noteOccupancy()
	}
	return len(ts) > 0
}

// service is one pass of the shared server on behalf of job j: drain the
// job's queued completions when caught up (force drains regardless), top
// its buffer up, and overlap one unit of the job's deferred management
// while the buffer is above the low-water mark. Parked workers are woken
// when the pass buffered anything.
func (m *async) service(j *mjob, now int64, force bool) {
	s := m.s
	aj := &m.jobs[j.pol.ID]
	buffered := false
	for {
		worked := false
		if len(aj.comp) > 0 && (force || s.serverFree <= now) {
			s.completeBatch(j, aj.comp, now)
			aj.comp = aj.comp[:0]
			worked = true
		}
		if m.topUp(j, now) {
			worked = true
			buffered = true
		}
		if !worked {
			break
		}
	}
	// At most one deferred unit per pass — the hardware cycle's rule
	// (overlap deferred work with computation while workers are fed), and
	// in virtual time also a modeling necessity: the buffer cannot drain
	// mid-pass, so a per-iteration gate would let one pass absorb the
	// whole deferred queue while workers starve behind it. Bulk
	// absorption belongs to the engine's idle-executive path, which is
	// bounded by the event horizon. A unit that released work gets one
	// refill attempt so the release reaches the buffer this pass.
	if !j.done && j.hasDef && aj.ready.len() > m.lowWater {
		if cost, ok := j.sched.DeferredMgmt(); ok {
			s.serve(now, cost)
			s.syncReady(j)
			if m.topUp(j, now) {
				buffered = true
			}
		}
	}
	if buffered {
		s.wake(now)
	}
}

// ask walks the candidates and tops the dispatching job's buffer back up
// behind the pop, so the next ask finds it warm.
func (m *async) ask(w int, at int64) {
	if j, start := m.s.walk(w, at, at); j != nil {
		m.service(j, start, false)
	}
}

// probe pops job j's ready buffer, after one service pass if it is empty.
// While j's serial action runs the walk does not probe it: its buffered
// slots are stamped at or after openAt anyway, but new production on its
// behalf must wait too.
func (m *async) probe(_ int, j *mjob, at int64) (core.Task, int, int64, bool) {
	aj := &m.jobs[j.pol.ID]
	if aj.ready.len() == 0 {
		m.service(j, at, false)
		if aj.ready.len() == 0 {
			return core.Task{}, 0, at, false
		}
	}
	sl := aj.ready.pop()
	m.buffered--
	m.noteOccupancy()
	if sl.at > at {
		at = sl.at
	}
	return sl.task, sl.task.Run.Len(), at, true
}

// complete queues the completion behind the server on its job's completion
// queue. The worker asks for new work immediately — it hands the completion
// off and never waits on management, the async executive's defining
// property.
func (m *async) complete(w int, j *mjob, at int64) {
	f := &m.s.worker[w].flight
	aj := &m.jobs[j.pol.ID]
	aj.comp = append(aj.comp, f.task)
	j.phaseEnd(f.task.Phase, at)
	m.service(j, at, false)
	m.s.pushAsk(at, w)
}

// claimable: buffered tasks are poppable by any worker whose candidate walk
// reaches their job; the dispatch waits for the slot's production stamp, not
// the ask.
func (m *async) claimable() int { return m.buffered }

// backlog: completions can sit behind a busy server with every worker
// parked; draining forces one service pass per backlogged job at the
// server's horizon.
func (m *async) backlog(drain bool) bool {
	found := false
	for ji := range m.jobs {
		if len(m.jobs[ji].comp) == 0 {
			continue
		}
		if !drain {
			return true
		}
		m.service(m.s.jobs[ji], m.s.serverFree, true)
		found = true
	}
	return found
}

func (m *async) drop(ji int, _ int64) {
	aj := &m.jobs[ji]
	m.buffered -= aj.ready.len()
	aj.ready.clear()
	aj.comp = aj.comp[:0]
	m.noteOccupancy()
}

func (m *async) held(ji int) int { return m.jobs[ji].ready.len() + len(m.jobs[ji].comp) }
