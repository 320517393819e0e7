package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/stats"
)

// svc is the two service workloads' shared instance: an in-process
// service.Server behind a real loopback http.Server, configured as
// `rundownd -workers nproc` would be (serial manager, the daemon's
// default), plus the client that drives it.
type svc struct {
	name       string // svc-small or svc-cotenant
	cfg        runCfg
	srv        *service.Server
	httpSrv    *http.Server
	serveErr   chan error
	cl         *client
	deck       *deck
	r          *rng
	goroutines int // before the server started, for the leak check
}

// Open-loop rate for svc-small, jobs per second. Fixed, not tuned per
// run: the mix in smallShapes averages ≈19 ms of spin per job, so this
// rate offers the two-worker pool ≈55 % of its capacity.
const smallRate = 58.0

// Set-up runs (and discards) this many jobs so that connections are open,
// the HTTP stack and the pool have reached steady state, and the first
// measured job is not the process's first job. About 0.4 s either way.
const (
	warmSmall    = 24
	warmCotenant = 4
)

func setupSvc(name string, cfg runCfg) (instance, error) {
	s := &svc{name: name, cfg: cfg, r: newRNG(cfg.seed), goroutines: runtime.NumGoroutine()}
	sc := service.Config{Workers: cfg.nproc}
	// svc-small: open loop, so enough connections that a due job never
	// waits for one. svc-cotenant: one per tenant and one for the observer.
	shapes, warmJobs, conns := smallShapes(), warmSmall, 8*cfg.nproc
	if name == "svc-cotenant" {
		// Every snapshot is read by the client, so a 10 ms cadence makes
		// the SSE fan-out part of the load.
		sc.SamplePeriod = 10 * time.Millisecond
		shapes, warmJobs, conns = cotenantShapes(), warmCotenant, cfg.nproc+1
	}
	s.deck = newDeck(s.r, shapes)
	var err error
	if s.srv, err = service.New(sc); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.httpSrv.Serve(ln) }()
	s.cl = newClient("http://"+ln.Addr().String(), conns)

	// Warm-up: a fixed number of jobs over all client connections.
	var wg sync.WaitGroup
	errs := make([]error, cfg.nproc)
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < warmJobs; i += cfg.nproc {
				spec := s.deck.shapes[i%len(s.deck.shapes)](uint64(i))
				body, _ := json.Marshal(spec.spec)
				if jr := s.cl.runJob(&spec, body, time.Now(), false); jr.err != nil {
					errs[c] = fmt.Errorf("warm-up job %d: %w", i, jr.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close drains the daemon the way rundownd does on SIGTERM and then
// checks that nothing it started is still running.
func (s *svc) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpDone := make(chan error, 1)
	go func() { httpDone <- s.httpSrv.Shutdown(ctx) }()
	err := s.srv.Shutdown(ctx)
	err = errors.Join(err, <-httpDone)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.cl.close()
	// Connection goroutines unwind asynchronously after Shutdown returns.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > s.goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > s.goroutines {
		err = errors.Join(err, fmt.Errorf("%s: %d goroutines leaked past Shutdown", s.name, n-s.goroutines))
	}
	return err
}

// poolSample is GET /v1/status, timed.
func (s *svc) poolSample(ctx context.Context) (service.PoolStatus, time.Duration, error) {
	var ps service.PoolStatus
	start := time.Now()
	b, err := s.cl.get(ctx, "/v1/status")
	took := time.Since(start)
	if err != nil {
		return ps, took, err
	}
	return ps, took, json.Unmarshal(b, &ps)
}

func (s *svc) Measure(window time.Duration, rec *recorder) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), window+2*opTimeout)
	defer cancel()
	before, _, err := s.poolSample(ctx)
	if err != nil {
		return nil, err
	}
	promBefore, err := s.cl.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var runs []jobRun
	var scr scrapes
	start := time.Now()
	if s.name == "svc-small" {
		runs = s.openLoop(window)
	} else {
		runs, scr = s.closedLoop(ctx, window)
	}
	elapsed := time.Since(start)

	runtime.ReadMemStats(&m1)
	after, _, err := s.poolSample(ctx)
	if err != nil {
		return nil, err
	}
	promAfter, err := s.cl.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.attempted = len(runs)
	var lat, submit, lag, queue, run, late, download []float64
	var granules, events, retries, stalled, missingFinal int
	for i := range runs {
		jr := &runs[i]
		late = append(late, ms(jr.send.Sub(jr.due)))
		if jr.stream.finals == 0 {
			missingFinal++
		}
		if jr.err != nil {
			res.fail(fmt.Errorf("%s job %d: %w", s.name, i, jr.err))
			if strings.Contains(jr.err.Error(), "wedged") {
				stalled++
			}
			continue
		}
		rep := jr.stream.last.Report
		granules += jr.spec.granules
		retries += rep.Attempts - 1
		lat = append(lat, ms(jr.final.Sub(jr.due)))
		submit = append(submit, ms(jr.accepted.Sub(jr.send)))
		queue = append(queue, ms(rep.QueueWait))
		run = append(run, ms(rep.Exec.Wall-rep.QueueWait))
		// The server stamps submission before it writes the 202, so
		// accepted+Wall can run a little past the true finish; the lag is
		// what is left of the latency after the pool's own account.
		finish := jr.accepted.Add(rep.Exec.Wall)
		lag = append(lag, ms(jr.final.Sub(finish)))
		events += jr.stream.events
		if jr.traceDownload > 0 {
			download = append(download, ms(jr.traceDownload))
		}
		root := rec.add(0, i+1, "job", jr.due, jr.final)
		rec.add(root, i+1, "gen.wait", jr.due, jr.send)
		rec.add(root, i+1, "service.submit", jr.send, jr.accepted)
		rec.add(root, i+1, "tenant.queue", jr.accepted, jr.accepted.Add(rep.QueueWait))
		rec.add(root, i+1, "tenant.run", jr.accepted.Add(rep.QueueWait), finish)
		rec.add(root, i+1, "service.final", finish, jr.final)
	}
	ok := float64(len(lat))
	capacity := float64(s.cfg.nproc) * float64(after.Pool.Elapsed-before.Pool.Elapsed)
	compute := float64(after.Pool.Compute - before.Pool.Compute)

	res.pct("job_latency_p50_ms", lat, 50)
	if s.name == "svc-small" {
		res.pctBlocks("job_latency_p90_ms", lat, 90)
	} else {
		res.pct("job_latency_p90_ms", lat, 90)
	}
	res.e2e["jobs_per_s"] = ok / elapsed.Seconds()
	res.e2e["granules_per_s"] = float64(granules) / elapsed.Seconds()
	res.e2e["utilization"] = stats.Ratio(compute, capacity)
	res.e2e["allocs_per_job"] = stats.Ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(runs)))

	if s.name == "svc-small" {
		// The submit path: what a short job pays before and after its compute.
		res.layerPct("service.submit_ms_p50", submit, 50)
		res.layerPct("service.submit_ms_p90", submit, 90)
		res.layerPct("service.final_lag_ms_p50", lag, 50)
		res.layerPct("tenant.queue_wait_ms_p50", queue, 50)
		res.layerPct("tenant.run_ms_p50", run, 50)
		res.layerPct("gen.wait_ms_p50", late, 50)
		res.layerPct("gen.late_ms_p90", late, 90)
		res.layer["gen.offered_per_s"] = float64(len(runs)) / elapsed.Seconds()
		res.layer["tenant.dispatch_wait_us_p99"] = promQuantile(promAfter, "rundown_dispatch_wait", 0.99) / 1e3
		// How much of the median latency the five spans account for: the
		// per-job spans tile the job exactly, so this checks that the
		// medians of the parts still add up to the median of the whole.
		var parts float64
		for _, name := range []string{"gen.wait_ms_p50", "service.submit_ms_p50", "tenant.queue_wait_ms_p50", "tenant.run_ms_p50", "service.final_lag_ms_p50"} {
			parts += res.layer[name]
		}
		res.layer["bench.span_coverage"] = stats.Ratio(parts, res.e2e["job_latency_p50_ms"])
		return res, nil
	}
	// The read side and the pool's sharing: what two long co-tenants and
	// an observer exercise.
	res.layerPct("service.trace_download_ms_p50", download, 50)
	res.layerPct("service.metrics_scrape_ms_p50", scr.metrics, 50)
	res.layerPct("service.status_us_p50", scr.status, 50)
	res.layer["service.sse_events_per_job"] = stats.Ratio(float64(events), ok)
	res.layer["service.sse_missing_final"] = float64(missingFinal)
	res.layer["tenant.retries"] = float64(retries)
	res.layer["tenant.stalled"] = float64(stalled)
	res.layer["tenant.backfill_share"] = stats.Ratio(
		promSample(promAfter, "rundown_backfill_time_total")-promSample(promBefore, "rundown_backfill_time_total"),
		promSample(promAfter, "rundown_compute_time_total")-promSample(promBefore, "rundown_compute_time_total"))
	res.layer["tenant.mgmt_share"] = stats.Ratio(float64(after.Pool.Mgmt-before.Pool.Mgmt), capacity)
	res.layer["tenant.idle_share"] = stats.Ratio(float64(after.Pool.Idle-before.Pool.Idle), capacity)
	if scr.err != nil {
		res.fail(fmt.Errorf("scraper: %w", scr.err))
	}
	return res, nil
}

// openLoop sends on a seeded schedule regardless of how the server is
// doing: each job is launched when it is due, on its own goroutine, and
// its clock starts then. Jobs in flight are bounded only by the
// connection pool, which is sized so that it is never what a job waits
// for — queueing happens in the daemon's pool, where it is measured.
func (s *svc) openLoop(window time.Duration) []jobRun {
	n := int(smallRate * window.Seconds())
	specs := make([]jobSpec, n)
	bodies := make([][]byte, n)
	for i := range specs {
		specs[i] = s.deck.deal()
		bodies[i], _ = json.Marshal(specs[i].spec)
	}
	at := arrivals(s.r, n, window)
	runs := make([]jobRun, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range at {
		due := start.Add(at[i])
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = s.cl.runJob(&specs[i], bodies[i], due, false)
		}()
	}
	wg.Wait()
	return runs
}

// scrapes is what the observer connection measured.
type scrapes struct {
	metrics []float64 // GET /metrics, ms
	status  []float64 // GET /v1/status, µs
	err     error
}

// scrapePeriod is the observer's cadence: an operator dashboard polling
// /metrics and /v1/status.
const scrapePeriod = 100 * time.Millisecond

// closedLoop runs nproc tenants, each submitting its next job when the
// previous one's final arrives and downloading that job's trace in
// between, while one more connection polls the observability endpoints.
func (s *svc) closedLoop(ctx context.Context, window time.Duration) ([]jobRun, scrapes) {
	deadline := time.Now().Add(window)
	perClient := make([][]jobRun, s.cfg.nproc)
	// Specs are dealt up front, round-robin, so the deck's order does not
	// depend on which client finishes first.
	var mu sync.Mutex
	deal := func() (jobSpec, []byte) {
		mu.Lock()
		defer mu.Unlock()
		spec := s.deck.deal()
		body, _ := json.Marshal(spec.spec)
		return spec, body
	}
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				spec, body := deal()
				perClient[c] = append(perClient[c], s.cl.runJob(&spec, body, time.Now(), true))
			}
		}()
	}
	var scr scrapes
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		tick := time.NewTicker(scrapePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if _, err := s.cl.get(ctx, "/metrics"); err != nil {
				scr.err = err
				return
			}
			scr.metrics = append(scr.metrics, ms(time.Since(t0)))
			_, took, err := s.poolSample(ctx)
			if err != nil {
				scr.err = err
				return
			}
			scr.status = append(scr.status, us(took))
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	var runs []jobRun
	for _, r := range perClient {
		runs = append(runs, r...)
	}
	return runs, scr
}
