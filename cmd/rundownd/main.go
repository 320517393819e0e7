// Command rundownd is rundown-as-a-service: a long-lived HTTP daemon
// owning one hot multi-tenant worker pool. Jobs arrive as declarative
// JSON specs over POST /v1/jobs and share the pool under the
// overlap-first dispatch policy; everything about them is observable
// over HTTP while they run.
//
// Endpoints:
//
//	POST /v1/jobs              submit a job spec; 202 + job ID
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         job status (+ final report once done)
//	POST /v1/jobs/{id}/abort   abort a running job
//	GET  /v1/jobs/{id}/events  SSE: job snapshots, one terminal "final"
//	GET  /v1/jobs/{id}/trace   the job's flight-recorder trace (binary;
//	                           rundownsim -replay consumes it)
//	GET  /v1/events            SSE: whole-pool snapshots
//	GET  /v1/status            live pool sample
//	GET  /metrics              Prometheus text format
//	GET  /healthz              liveness (+ draining flag)
//	GET  /debug/pprof/         Go profiling
//
// Latency classes: a job submitted with "class": "latency" and
// "tolerance_pct": X is admitted only when the measured backfill
// interference projects a slowdown under X%; otherwise the submit is
// refused with HTTP 429 and a structured reason.
//
// SIGTERM (or Ctrl-C) drains gracefully: running jobs finish, SSE
// streams receive their terminal events, then the process exits 0.
// -drain-timeout bounds the wait; past it, remaining jobs are aborted.
//
// Example:
//
//	rundownd -listen 127.0.0.1:8080 -workers 8 -manager sharded -max-active 2 -queue
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	rundown "repro"
	"repro/internal/cliflags"
	"repro/internal/service"
)

// options is the daemon's command line.
type options struct {
	listen       string
	manager      string
	drainTimeout time.Duration
	svc          service.Config // Manager is resolved from manager after parsing
}

// register installs the daemon's flags on fs. -manager is its only
// executive knob: every other executive setting keeps its default.
func register(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	fs.IntVar(&o.svc.Workers, "workers", 0, "pool worker count (0 = GOMAXPROCS)")
	fs.IntVar(&o.svc.MaxActive, "max-active", 0, "admission high-water mark: at most this many jobs active (0 = unbounded)")
	fs.BoolVar(&o.svc.Queue, "queue", false, "park over-limit submits instead of refusing them")
	fs.IntVar(&o.svc.PreemptBound, "preempt-bound", 0, "cap backfill task grain at this many granules (0 = uncapped)")
	fs.DurationVar(&o.svc.StallTimeout, "stall-timeout", 0, "wedged-job watchdog threshold (0 = 5s default, negative disables)")
	fs.DurationVar(&o.svc.SamplePeriod, "sample-period", 0, "SSE snapshot cadence (0 = 250ms default)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM; past it remaining jobs are aborted")
	fs.StringVar(&o.manager, "manager", "serial", "management layer: "+cliflags.ManagerNames())
	return o
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()

	manager, err := rundown.ParseExecManager(o.manager)
	if err != nil {
		fail("%v", err)
	}
	o.svc.Manager = manager
	s, err := service.New(o.svc)
	if err != nil {
		fail("%v", err)
	}

	srv := &http.Server{Addr: o.listen, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("rundownd: listening on %s (workers=%d manager=%v)", o.listen, o.svc.Workers, manager)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("rundownd: signal received, draining (bound %v)", o.drainTimeout)
	case err := <-errCh:
		fail("%v", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the pool. In-flight
	// SSE streams are cut by srv.Shutdown's context once the drain ends.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(drainCtx) }()
	if err := s.Shutdown(drainCtx); err != nil {
		log.Printf("rundownd: drain finished with job errors: %v", err)
	}
	if err := <-shutdownErr; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rundownd: http shutdown: %v", err)
	}
	log.Printf("rundownd: drained, exiting")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rundownd: "+format+"\n", args...)
	os.Exit(1)
}
