package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	rundown "repro"
	"repro/internal/trace"
)

// newTestServer builds a daemon with a small pool and a fast SSE
// cadence, plus its httptest front end. Callers own Shutdown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.SamplePeriod == 0 {
		cfg.SamplePeriod = 20 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// submit POSTs a spec and decodes the response body into out (which may
// be *JobStatus or *errorBody), returning the HTTP status code.
func submit(t *testing.T, ts *httptest.Server, spec any, out any) int {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitTerminal polls a job until done or failed.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// quickSpec is a small job that finishes in tens of milliseconds.
func quickSpec(name string) JobSpec {
	return JobSpec{
		Name: name,
		Workload: WorkloadSpec{
			Kind: "chain", Mapping: "identity", Phases: 2, Granules: 64,
			WorkMicros: 100, Seed: 1,
		},
	}
}

// longSpec is a job that occupies the pool for roughly a second.
func longSpec(name string) JobSpec {
	return JobSpec{
		Name: name,
		Workload: WorkloadSpec{
			Kind: "chain", Mapping: "identity", Phases: 2, Granules: 256,
			WorkMicros: 4000, Seed: 2,
		},
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st JobStatus
	if code := submit(t, ts, quickSpec("etl"), &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.ID == "" || st.Name != "etl" {
		t.Fatalf("submit status: %+v", st)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("job ended %q (error %q), want done", final.State, final.Error)
	}
	if final.Report == nil || final.Report.Exec == nil || final.Report.Exec.Tasks == 0 {
		t.Fatalf("terminal status has no exec report: %+v", final.Report)
	}
	if final.Tasks == 0 {
		t.Error("terminal status reports zero tasks")
	}

	// Every task the pool dispatched observed its dispatch wait, so the
	// histogram behind latency-class admission is not empty.
	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	want := fmt.Sprintf("rundown_dispatch_wait_count %d\n", final.Tasks)
	if !strings.Contains(string(body), want) {
		t.Errorf("scrape after a %d-task job has no %q:\n%s", final.Tasks, want,
			grepLines(string(body), "rundown_dispatch_wait_"))
	}

	// The job shows up in the listing.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list: %+v", list.Jobs)
	}

	// Pool status and health answer.
	for _, path := range []string{"/v1/status", "/healthz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %v (HTTP %d)", path, err, r.StatusCode)
		}
		if r != nil {
			r.Body.Close()
		}
	}
}

func TestAbort(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st JobStatus
	if code := submit(t, ts, longSpec("doomed"), &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/abort", "", nil)
	if err != nil {
		t.Fatalf("POST abort: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("abort: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != "failed" || !strings.Contains(final.Error, "aborted") {
		t.Fatalf("aborted job ended (%q, %q), want failed/aborted", final.State, final.Error)
	}
	// A second abort on the finished job conflicts.
	resp2, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/abort", "", nil)
	if err != nil {
		t.Fatalf("second abort: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second abort: HTTP %d, want 409", resp2.StatusCode)
	}
}

// sseEvents reads a whole SSE stream to EOF, returning the (name, data)
// pairs in order.
func sseEvents(t *testing.T, url string) []event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	var evs []event
	var cur event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				evs = append(evs, cur)
				cur = event{}
			}
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatalf("scan stream: %v", err)
	}
	return evs
}

func TestJobSSETerminalConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{SamplePeriod: 10 * time.Millisecond})
	var st JobStatus
	if code := submit(t, ts, longSpec("streamed"), &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	evs := sseEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(evs) == 0 {
		t.Fatal("stream delivered no events")
	}
	finals := 0
	for i, ev := range evs {
		switch ev.name {
		case "snapshot":
			if finals > 0 {
				t.Errorf("snapshot event %d after the final", i)
			}
		case "final":
			finals++
			if i != len(evs)-1 {
				t.Errorf("final event at %d of %d, want last", i, len(evs))
			}
			var fs JobStatus
			if err := json.Unmarshal(ev.data, &fs); err != nil {
				t.Fatalf("final payload: %v", err)
			}
			if fs.State != "done" && fs.State != "failed" {
				t.Errorf("final payload state %q", fs.State)
			}
			if fs.Report == nil {
				t.Error("final payload has no report")
			}
		default:
			t.Errorf("unknown event name %q", ev.name)
		}
	}
	if finals != 1 {
		t.Fatalf("stream delivered %d final events, want exactly 1", finals)
	}

	// The Observer-conformance mirror: a late subscriber to the finished
	// job's stream gets exactly the terminal event, then EOF.
	late := sseEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(late) != 1 || late[0].name != "final" {
		t.Fatalf("late subscription got %d events (first %q), want exactly the final",
			len(late), eventName(late))
	}
}

func eventName(evs []event) string {
	if len(evs) == 0 {
		return ""
	}
	return evs[0].name
}

func TestPoolSSEStream(t *testing.T) {
	s, ts := newTestServer(t, Config{SamplePeriod: 10 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	var evs []event
	go func() {
		defer wg.Done()
		evs = sseEvents(t, ts.URL+"/v1/events")
	}()

	var st JobStatus
	if code := submit(t, ts, quickSpec("observed"), &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, st.ID)
	time.Sleep(30 * time.Millisecond) // at least one sample after the job

	// Draining closes the pool, which emits the stream's terminal event.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	finals := 0
	for _, ev := range evs {
		if ev.name == "final" {
			finals++
			var sn rundown.Snapshot
			if err := json.Unmarshal(ev.data, &sn); err != nil {
				t.Fatalf("final pool snapshot: %v", err)
			}
			if !sn.Final || sn.Backend != rundown.PoolBackend {
				t.Errorf("final snapshot: %+v", sn)
			}
		}
	}
	if finals != 1 {
		t.Fatalf("pool stream delivered %d finals, want exactly 1 (events: %d)", finals, len(evs))
	}
}

func TestTraceDownloadReplays(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := quickSpec("traced")
	var st JobStatus
	if code := submit(t, ts, spec, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: HTTP %d, %v", resp.StatusCode, err)
	}
	// The size is known before the first byte: announced, not chunked.
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("trace download: Content-Length %d (encoding %v) for %d bytes",
			resp.ContentLength, resp.TransferEncoding, len(raw))
	}
	f := t.TempDir() + "/job.trace"
	if err := writeFile(f, raw); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	tr, err := rundown.ReadTraceFile(f)
	if err != nil {
		t.Fatalf("downloaded trace does not parse: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("downloaded trace has no events")
	}
	replaySpec(t, spec, tr)
}

// replaySpec replays a downloaded schedule in the virtual machine
// against the same (normalized) spec the daemon ran.
func replaySpec(t *testing.T, spec JobSpec, tr *rundown.Trace) {
	t.Helper()
	if err := spec.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	prog, err := spec.buildProgram()
	if err != nil {
		t.Fatalf("rebuild program: %v", err)
	}
	res, err := rundown.ReplayTrace(prog, spec.options(), tr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Makespan <= 0 {
		t.Errorf("replay makespan %d", res.Makespan)
	}
}

// downloadTrace fetches a job's trace, returning the status code and,
// on 200, the parsed trace.
func downloadTrace(t *testing.T, ts *httptest.Server, id string) (int, *rundown.Trace) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Errorf("GET trace of %s: %v", id, err)
		return 0, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Errorf("trace of %s: HTTP %d without the error envelope (%v)", id, resp.StatusCode, err)
		}
		return resp.StatusCode, nil
	}
	tr, err := trace.Read(resp.Body)
	if err != nil {
		t.Errorf("trace of %s does not parse: %v", id, err)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, tr
}

// TestTraceDownloadRacesSubmit is the reproducer for the job-name race:
// a download reads the recorder's meta while a submit appends the new
// job's name to it. Run under -race.
func TestTraceDownloadRacesSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var first JobStatus
	if code := submit(t, ts, quickSpec("first"), &first); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, first.ID)

	const n = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			spec := quickSpec(fmt.Sprintf("later-%d", i))
			spec.Workload.Granules, spec.Workload.WorkMicros = 4, 0
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			resp.Body.Close()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			code, tr := downloadTrace(t, ts, first.ID)
			if code != http.StatusOK || tr == nil {
				t.Errorf("download %d: HTTP %d", i, code)
				return
			}
			if len(tr.Meta.Jobs) != 1 || tr.Meta.Jobs[0] != "first" {
				t.Errorf("download %d names jobs %v, want [first]", i, tr.Meta.Jobs)
				return
			}
		}
	}()
	wg.Wait()
}

// TestTraceRetention runs the daemon's recorder past its retention
// budget: the recorder's memory stays within the budget, the job whose
// records were recycled answers 410 Gone in the error envelope, and jobs
// inside the window — one still running, then the same one finished —
// download and replay.
func TestTraceRetention(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var old JobStatus
	if code := submit(t, ts, quickSpec("old"), &old); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, old.ID)
	if code, _ := downloadTrace(t, ts, old.ID); code != http.StatusOK {
		t.Fatalf("fresh trace of old: HTTP %d", code)
	}

	// Two records per task on the one worker's ring: past the budget.
	flood := JobSpec{Name: "flood", Grain: 1, Workload: WorkloadSpec{
		Phases: 2, Granules: trace.DefaultRetain/4 + 4096,
	}}
	var fl JobStatus
	if code := submit(t, ts, flood, &fl); code != http.StatusAccepted {
		t.Fatalf("submit flood: HTTP %d", code)
	}
	if st := waitTerminal(t, ts, fl.ID); st.State != "done" {
		t.Fatalf("flood: %s %s", st.State, st.Error)
	}
	if n := s.rec.Ring(0).Len(); n < trace.DefaultRetain || n > trace.DefaultRetain+2048 {
		t.Fatalf("the worker ring retains %d events, budget %d", n, trace.DefaultRetain)
	}
	if code, _ := downloadTrace(t, ts, old.ID); code != http.StatusGone {
		t.Fatalf("recycled trace of old: HTTP %d, want 410", code)
	}
	if code, _ := downloadTrace(t, ts, fl.ID); code != http.StatusGone {
		t.Fatalf("trace of flood, longer than the budget: HTTP %d, want 410", code)
	}

	spec := longSpec("live")
	var live JobStatus
	if code := submit(t, ts, spec, &live); code != http.StatusAccepted {
		t.Fatalf("submit live: HTTP %d", code)
	}
	for getStatus(t, ts, live.ID).Tasks == 0 {
		time.Sleep(time.Millisecond)
	}
	if code, tr := downloadTrace(t, ts, live.ID); code != http.StatusOK || tr.Count(trace.KDispatch) == 0 {
		t.Fatalf("trace of a running job: HTTP %d, %v", code, tr)
	}
	if st := waitTerminal(t, ts, live.ID); st.State != "done" {
		t.Fatalf("live: %s %s", st.State, st.Error)
	}
	code, tr := downloadTrace(t, ts, live.ID)
	if code != http.StatusOK {
		t.Fatalf("trace of live: HTTP %d", code)
	}
	replaySpec(t, spec, tr)
}

func TestConcurrentScrapeAndSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		var st JobStatus
		if code := submit(t, ts, quickSpec(fmt.Sprintf("par%d", i)), &st); code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.State != "done" {
			t.Errorf("job %s ended %q", id, st.State)
		}
	}
	close(stop)
	wg.Wait()

	// Per-class counters appear in the scrape once a classified job ran.
	var st JobStatus
	if code := submit(t, ts, classified(quickSpec("cls"), ClassBatch, 0), &st); code != http.StatusAccepted {
		t.Fatalf("classified submit: HTTP %d", code)
	}
	waitTerminal(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"rundown_class_batch_jobs_total", "rundown_class_batch_done_total"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("scrape missing %s", metric)
		}
	}
}

func classified(s JobSpec, class string, tol float64) JobSpec {
	s.Class = class
	s.TolerancePct = tol
	return s
}

func TestProjectSlowdown(t *testing.T) {
	cases := []struct {
		name           string
		wait99, avg    int64
		view           rundown.AdmissionView
		wantPct        float64
		wantReasonPart string
	}{
		{"queued-jobs-project-100", 0, 1000,
			rundown.AdmissionView{Queued: 2}, 100, "queued"},
		{"quiet-start-projects-0", 0, 0,
			rundown.AdmissionView{}, 0, "no completed tasks"},
		{"wait-vs-task", 50, 1000,
			rundown.AdmissionView{}, 5, "dispatch wait"},
		{"active-backfill-blocks-full-task", 50, 1000,
			rundown.AdmissionView{Active: 1, MaxBackfillTask: 8}, 105, "backfill"},
		{"idle-pool-ignores-old-backfill", 50, 1000,
			rundown.AdmissionView{Active: 0, MaxBackfillTask: 8}, 5, "dispatch wait"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pct, reason := projectSlowdown(tc.wait99, tc.avg, tc.view)
			if pct != tc.wantPct {
				t.Errorf("pct = %v, want %v", pct, tc.wantPct)
			}
			if !strings.Contains(reason, tc.wantReasonPart) {
				t.Errorf("reason %q missing %q", reason, tc.wantReasonPart)
			}
		})
	}
}

func TestLatencyClassAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Quiet pool, no measurements: latency jobs are admitted.
	var st JobStatus
	if code := submit(t, ts, classified(quickSpec("lat-ok"), ClassLatency, 10), &st); code != http.StatusAccepted {
		t.Fatalf("quiet latency submit: HTTP %d", code)
	}
	waitTerminal(t, ts, st.ID)

	// Pin the measurement to heavy interference: rejected, 429, with
	// the structured reason.
	s.measure = func() (int64, int64) { return 5000, 1000 } // projects 500%
	var eb errorBody
	if code := submit(t, ts, classified(quickSpec("lat-no"), ClassLatency, 10), &eb); code != http.StatusTooManyRequests {
		t.Fatalf("loaded latency submit: HTTP %d, want 429", code)
	}
	if eb.Admission == nil {
		t.Fatalf("429 body carries no structured admission error: %+v", eb)
	}
	adm := eb.Admission
	if adm.Class != ClassLatency || adm.TolerancePct != 10 || adm.ProjectedPct <= 10 ||
		adm.Reason == "" || adm.DispatchWaitP99 != 5000 || adm.AvgTaskNanos != 1000 {
		t.Errorf("admission error fields: %+v", adm)
	}

	// Within tolerance: admitted again.
	s.measure = func() (int64, int64) { return 50, 1000 } // projects 5%
	if code := submit(t, ts, classified(quickSpec("lat-ok2"), ClassLatency, 10), &st); code != http.StatusAccepted {
		t.Fatalf("tolerable latency submit: HTTP %d", code)
	}
	waitTerminal(t, ts, st.ID)

	// The rejection shows in per-class counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "rundown_class_latency_rejected_total 1") {
		t.Errorf("scrape missing latency rejection counter:\n%s",
			grepLines(string(body), "rundown_class"))
	}
}

func TestLatencyRejectedBehindQueue(t *testing.T) {
	// The deterministic co-tenancy scenario: one slot, one long batch
	// job running, a second batch job queued behind admission control —
	// a latency job must be refused outright.
	_, ts := newTestServer(t, Config{MaxActive: 1, Queue: true})
	var a, b JobStatus
	if code := submit(t, ts, longSpec("batch-a"), &a); code != http.StatusAccepted {
		t.Fatalf("batch-a: HTTP %d", code)
	}
	if code := submit(t, ts, classified(longSpec("batch-b"), ClassBatch, 0), &b); code != http.StatusAccepted {
		t.Fatalf("batch-b: HTTP %d", code)
	}
	if st := getStatus(t, ts, b.ID); st.State != "queued" {
		t.Fatalf("batch-b state %q, want queued", st.State)
	}
	var eb errorBody
	if code := submit(t, ts, classified(quickSpec("lat"), ClassLatency, 50), &eb); code != http.StatusTooManyRequests {
		t.Fatalf("latency behind queue: HTTP %d, want 429", code)
	}
	if eb.Admission == nil || eb.Admission.QueuedJobs == 0 ||
		!strings.Contains(eb.Admission.Reason, "queued") {
		t.Fatalf("admission error: %+v", eb.Admission)
	}
	waitTerminal(t, ts, a.ID)
	waitTerminal(t, ts, b.ID)
}

func TestSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown-field", `{"workload":{"kind":"chain"},"bogus":1}`},
		{"bad-kind", `{"workload":{"kind":"mapreduce"}}`},
		{"bad-mapping", `{"workload":{"mapping":"telepathy"}}`},
		{"latency-needs-tolerance", `{"workload":{},"class":"latency"}`},
		{"unknown-class", `{"workload":{},"class":"platinum"}`},
		{"work-too-big", `{"workload":{"work_us":60000}}`},
		{"granule-flood", `{"workload":{"granules":99999999}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var st JobStatus
	if code := submit(t, ts, quickSpec("last"), &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var eb errorBody
	if code := submit(t, ts, quickSpec("too-late"), &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: HTTP %d, want 503", code)
	}
	// The drained job still reports its terminal state.
	if final := getStatus(t, ts, st.ID); final.State != "done" {
		t.Errorf("drained job state %q", final.State)
	}
}

// grepLines filters s to lines containing sub, for failure messages.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
