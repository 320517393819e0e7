package sim

import "repro/internal/core"

// perTask is the per-task management model (StealsWorker, Dedicated,
// Sharded): every dispatch and every completion is one management request,
// priced as the scheduler reports it and charged where the model's lane
// puts it. An ask probes a candidate with NextTask and pays for the probe
// whether or not it found work, so a dry walk costs every probe it made;
// a completion is applied at once and the worker re-asks when it is
// processed. Nothing waits in the model between events.
type perTask struct {
	holdsNothing
	s *mstate
	// own charges each worker's requests on its own timeline (Sharded)
	// instead of on the serial executive's; see lane.
	own bool
}

func newPerTask(own bool) func(*mstate, Config, int64) model {
	return func(s *mstate, _ Config, _ int64) model { return &perTask{s: s, own: own} }
}

// lane is the management lane worker w's requests are charged on: the
// horizon of the one serial executive for every worker — a reserved
// processor (StealsWorker) or a separate one (Dedicated), which differ only
// in how many processors are left to compute — or, under Sharded, the
// worker's own timeline (mworker.free), so management from different
// processors proceeds concurrently.
func (m *perTask) lane(w int) *int64 {
	if m.own {
		return &m.s.worker[w].free
	}
	return &m.s.serverFree
}

func (m *perTask) ask(w int, at int64) { m.s.walk(w, at, at) }

func (m *perTask) probe(w int, j *mjob, at int64) (core.Task, int, int64, bool) {
	task, cost, ok := j.sched.NextTask()
	m.s.syncReady(j)
	return task, task.Run.Len(), m.s.chargeLane(m.lane(w), at, cost), ok
}

func (m *perTask) complete(w int, j *mjob, at int64) {
	s := m.s
	f := &s.worker[w].flight
	serial0 := j.sched.SerialCost()
	fin := s.chargeLane(m.lane(w), at, j.sched.Complete(f.task))
	j.phaseEnd(f.task.Phase, fin)
	s.applied(j, serial0, fin)
	s.wake(fin)
	// Fast path: when the worker's re-ask would be the very next event
	// anyway, serve it inline and skip the queue round trip. This is
	// exactly the event the main loop would process next — any worker
	// wake just issued at fin was pushed first and defeats the peek check,
	// and deferred absorption (which the loop would try first, since
	// completion processing leaves serverFree == fin) and a pending restart
	// (likewise) gate the path out entirely. The loop-top observer poll is
	// replayed here so snapshot streams are untouched.
	if s.deferredN == 0 && s.restartN == 0 && s.queue.askWouldPopFirst(fin) {
		if s.obs != nil {
			s.observe()
		}
		s.ask(w, fin)
		return
	}
	s.pushAsk(fin, w)
}
