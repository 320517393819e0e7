package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	rundown "repro"
	"repro/internal/trace"
)

// Config shapes the daemon's one long-lived pool and its HTTP surface.
type Config struct {
	// Workers is the pool's worker count (0 = GOMAXPROCS).
	Workers int
	// Manager selects the per-job management layer.
	Manager rundown.ExecManager
	// MaxActive arms pool admission control at this high-water mark
	// (0 = unbounded); Queue parks over-limit submits instead of
	// refusing them.
	MaxActive int
	Queue     bool
	// PreemptBound caps backfill task grains (0 = uncapped).
	PreemptBound int
	// StallTimeout arms the wedged-job watchdog (0 = a 5s default —
	// generous enough for long busy-spin tasks; negative disables).
	StallTimeout time.Duration
	// SamplePeriod is the SSE snapshot cadence for both the pool stream
	// and per-job streams (0 = 250ms).
	SamplePeriod time.Duration
}

// defaults the zero Config resolves to.
const (
	defaultStall  = 5 * time.Second
	defaultSample = 250 * time.Millisecond
)

// Server is the rundown service: one hot pool, one metrics registry,
// one flight recorder, and the HTTP handlers that expose them.
type Server struct {
	cfg     Config
	reg     *rundown.MetricsRegistry
	rec     *rundown.TraceRecorder
	pool    *rundown.Pool
	hub     *hub
	mux     *http.ServeMux
	measure measureFunc

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	order    []string
	nextID   int
	draining bool

	wg sync.WaitGroup
}

// jobEntry tracks one submitted job across its HTTP lifetime.
type jobEntry struct {
	id     string
	spec   JobSpec
	handle *rundown.PoolJob
}

// New builds the server and starts its pool. The caller owns the
// lifecycle: serve s.Handler(), then Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = defaultStall
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = defaultSample
	}
	s := &Server{
		cfg:  cfg,
		reg:  rundown.NewMetricsRegistry(cfg.Workers, "ns"),
		rec:  rundown.NewTraceRecorder(cfg.Workers),
		hub:  newHub(),
		jobs: make(map[string]*jobEntry),
	}
	s.measure = registryMeasure(s.reg)
	opts := []rundown.Option{
		rundown.WithWorkers(cfg.Workers),
		rundown.WithManager(cfg.Manager),
		rundown.WithPool(),
		rundown.WithMetricsRegistry(s.reg),
		rundown.WithTraceRecorder(s.rec),
		rundown.WithLiveFaults(),
		rundown.WithAdmitFunc(s.admit),
		rundown.WithObserver(s.poolObserver),
		rundown.WithObservePeriod(cfg.SamplePeriod),
		rundown.WithStallTimeout(cfg.StallTimeout),
	}
	if cfg.MaxActive > 0 {
		opts = append(opts, rundown.WithAdmission(cfg.MaxActive, cfg.Queue))
	}
	if cfg.PreemptBound > 0 {
		opts = append(opts, rundown.WithPreemptBound(cfg.PreemptBound))
	}
	r, err := rundown.New(opts...)
	if err != nil {
		return nil, err
	}
	pool, err := r.StartPool()
	if err != nil {
		return nil, err
	}
	s.pool = pool
	s.routes()
	return s, nil
}

// poolTopic is the whole-pool SSE stream's hub topic.
const poolTopic = "pool"

// poolObserver feeds the pool-wide SSE stream from the Runner's unified
// observer: periodic "snapshot" events, and on Close the stream's one
// terminal "final" event (the Observer contract's Final snapshot).
func (s *Server) poolObserver(sn rundown.Snapshot) {
	b, err := json.Marshal(sn)
	if err != nil {
		return
	}
	if sn.Final {
		s.hub.finish(poolTopic, event{name: "final", data: b})
		return
	}
	s.hub.publish(poolTopic, event{name: "snapshot", data: b})
}

// Handler returns the daemon's full HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/abort", s.handleAbort)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/events", s.handlePoolEvents)
	s.mux.HandleFunc("GET /v1/status", s.handlePoolStatus)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// JobStatus is the GET /v1/jobs/{id} response (and the per-job SSE
// event payload): the job's lifecycle state plus, once terminal, its
// full JobReport in the pinned wire schema.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Class string `json:"class,omitempty"`
	// State is "queued", "running", "done" or "failed".
	State         string  `json:"state"`
	TolerancePct  float64 `json:"tolerance_pct,omitempty"`
	Tasks         int64   `json:"tasks"`
	BackfillTasks int64   `json:"backfill_tasks"`
	// Error and Report are set once the job is terminal.
	Error  string             `json:"error,omitempty"`
	Report *rundown.JobReport `json:"report,omitempty"`
}

// status builds the entry's current JobStatus. A terminal state has the
// report behind it: Wait returns at once, the pool closes the handle's
// Done channel in the step that makes the state terminal.
func (s *Server) status(e *jobEntry) JobStatus {
	h := e.handle
	st := JobStatus{
		ID:            e.id,
		Name:          h.Name(),
		Class:         h.Class(),
		TolerancePct:  e.spec.TolerancePct,
		Tasks:         h.Tasks(),
		BackfillTasks: h.BackfillTasks(),
	}
	state := h.State()
	st.State = state.String()
	if state != rundown.PoolJobDone && state != rundown.PoolJobFailed {
		return st
	}
	exec, err := h.Wait()
	rep := &rundown.JobReport{
		Name: h.Name(), Err: err, Exec: exec,
		Backfill:  h.BackfillTasks(),
		Attempts:  h.Attempts(),
		QueueWait: h.QueueWait(),
	}
	rep.DeadlineMargin, rep.HasDeadline = h.DeadlineMargin()
	st.Report = rep
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

// errAborted is the failure an HTTP abort retires a job with.
var errAborted = errors.New("service: job aborted by request")

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the non-2xx response envelope. Admission carries the
// structured latency-class refusal when that is what happened.
type errorBody struct {
	Error     string          `json:"error"`
	Admission *AdmissionError `json:"admission,omitempty"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	prog, err := spec.buildProgram()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad workload: %v", err)
		return
	}

	// Reserve the ID under the lock, but submit outside it: Submit can
	// run the admission predicate and block briefly, and status
	// handlers must stay responsive.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: no new jobs accepted")
		return
	}
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	name := spec.Name
	if name == "" {
		name = id
	}
	s.mu.Unlock()

	h, err := s.pool.Submit(prog, spec.options(), rundown.PoolJobConfig{
		Name:      name,
		Priority:  spec.Priority,
		Weight:    spec.Weight,
		Deadline:  time.Duration(spec.DeadlineMillis) * time.Millisecond,
		Retry:     spec.Retry,
		Backoff:   time.Duration(spec.BackoffMillis) * time.Millisecond,
		Class:     spec.Class,
		Tolerance: spec.TolerancePct,
	})
	if err != nil {
		var adm *AdmissionError
		switch {
		case errors.As(err, &adm):
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Admission: adm})
		case errors.Is(err, rundown.ErrPoolSaturated):
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, rundown.ErrPoolClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	e := &jobEntry{id: id, spec: spec, handle: h}
	s.mu.Lock()
	s.jobs[id] = e
	s.order = append(s.order, id)
	s.mu.Unlock()

	// A job-scoped fault campaign: the spec's rules are rewritten to
	// this job's pool index and armed on the live plan. Worker-scoped
	// rules still strike the shared pool's workers.
	if spec.Faults != nil && len(spec.Faults.Rules) > 0 {
		rules := append([]rundown.FaultRule(nil), spec.Faults.Rules...)
		for i := range rules {
			rules[i].Job = h.Index()
		}
		if ferr := s.pool.InjectFaults(rules); ferr != nil {
			h.Abort(fmt.Errorf("service: fault injection failed: %w", ferr))
			writeError(w, http.StatusInternalServerError, "fault injection failed: %v", ferr)
			return
		}
	}

	s.watch(e)
	writeJSON(w, http.StatusAccepted, s.status(e))
}

// watch streams one job's lifecycle into its SSE topic: periodic
// "snapshot" events while it runs, then exactly one terminal "final"
// event carrying the full report — the per-job mirror of the Observer
// contract's single Final snapshot.
func (s *Server) watch(e *jobEntry) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.cfg.SamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-e.handle.Done():
				st := s.status(e)
				if b, err := json.Marshal(st); err == nil {
					s.hub.finish(e.id, event{name: "final", data: b})
				}
				return
			case <-tick.C:
				st := s.status(e)
				if b, err := json.Marshal(st); err == nil {
					s.hub.publish(e.id, event{name: "snapshot", data: b})
				}
			}
		}
	}()
}

// lookup resolves a path's {id} to its entry.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *jobEntry {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.jobs[id]
	s.mu.Unlock()
	if e == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return e
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if e := s.lookup(w, r); e != nil {
		writeJSON(w, http.StatusOK, s.status(e))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*jobEntry, 0, len(s.order))
	for _, id := range s.order {
		entries = append(entries, s.jobs[id])
	}
	s.mu.Unlock()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, 0, len(entries))}
	for _, e := range entries {
		out.Jobs = append(out.Jobs, s.status(e))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	if st := e.handle.State(); st == rundown.PoolJobDone || st == rundown.PoolJobFailed {
		writeError(w, http.StatusConflict, "job %q already finished", e.id)
		return
	}
	e.handle.Abort(errAborted)
	writeJSON(w, http.StatusAccepted, s.status(e))
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if e := s.lookup(w, r); e != nil {
		s.hub.serveSSE(w, r, e.id)
	}
}

func (s *Server) handlePoolEvents(w http.ResponseWriter, r *http.Request) {
	s.hub.serveSSE(w, r, poolTopic)
}

// handleTrace serves the job's schedule from the pool's flight recorder
// in the versioned binary format — the file rundownsim -replay and
// -tracediff consume. The read touches the job's own extent of the
// recorder only; a job whose extent the recorder has since recycled
// answers 410.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	t, err := e.handle.Trace()
	var size int64
	if err == nil {
		size, err = trace.Size(t)
	}
	switch {
	case errors.Is(err, rundown.ErrTraceRecycled):
		writeError(w, http.StatusGone, "trace of job %q is gone: %v", e.id, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.trace", e.id))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	// Past the headers a failed write can only mean the client went away.
	_ = trace.Write(w, t)
}

// PoolStatus is the GET /v1/status response: the live pool sample plus
// the daemon's own bookkeeping.
type PoolStatus struct {
	Workers  int                  `json:"workers"`
	Jobs     int                  `json:"jobs"`
	Draining bool                 `json:"draining"`
	Pool     rundown.PoolSnapshot `json:"pool"`
}

func (s *Server) handlePoolStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, PoolStatus{
		Workers:  s.cfg.Workers,
		Jobs:     jobs,
		Draining: draining,
		Pool:     s.pool.Sample(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": draining})
}

// Shutdown drains the daemon: no new jobs are accepted, running jobs
// finish (the pool Close path), and every SSE stream receives its
// terminal event before closing. If ctx expires first, the remaining
// jobs are aborted and the drain completes anyway. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	var closeErr error
	done := make(chan struct{})
	go func() {
		_, closeErr = s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.pool.Abort(fmt.Errorf("service: drain deadline exceeded: %w", ctx.Err()))
		<-done
	}
	// Every job is terminal now, so each watcher publishes its final
	// event and exits; the pool observer emitted its Final on Close.
	s.wg.Wait()
	s.hub.closeAll()
	return closeErr
}
