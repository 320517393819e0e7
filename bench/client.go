package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// opTimeout bounds one operation end to end: a service job from submit to
// final, or one Run or RunAll on the executive or the simulator. One that
// outlives it is a failure; the benchmark itself never hangs on the
// program. It is long because the host can lose most of a core to its
// neighbours for a minute, and svc-small's open loop then builds a backlog
// that is slow, not wrong.
const opTimeout = 60 * time.Second

// client drives the daemon over real loopback HTTP/1.1, the way a tenant
// would: a bounded set of keep-alive connections shared by the client
// goroutines.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// get fetches path and returns the body, failing on a non-200 status.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// post sends a job spec and returns the status code and body.
func (c *client) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return resp.StatusCode, b, nil
}

// stream is what one SSE subscription delivered.
type stream struct {
	events int               // frames of any kind, the final included
	finals int               // "final" frames: the contract says exactly one
	last   service.JobStatus // payload of the last final
	at     time.Time         // receipt of the first final
}

// readEvents reads a job's SSE stream until the server ends it, counting
// every frame. It keeps reading after a final so that a second one would
// be seen.
func (c *client) readEvents(ctx context.Context, id string) (stream, error) {
	var st stream
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			st.events++
			if name != "final" {
				continue
			}
			st.finals++
			if st.finals == 1 {
				st.at = time.Now()
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st.last); err != nil {
				return st, fmt.Errorf("final of %s: %w", id, err)
			}
		}
	}
	return st, sc.Err()
}

// jobRun is the client-side record of one job: the timestamps the spans
// are built from and the server's closing report.
type jobRun struct {
	spec                       *jobSpec
	due, send, accepted, final time.Time
	stream                     stream
	traceDownload              time.Duration // 0 unless the trace was fetched
	err                        error         // why the job counts as failed
}

// runJob submits one job and follows it to its final event. Any way the
// job can go wrong — refused, timed out, not "done", not exactly one
// final, counts that disagree with the spec — lands in err.
func (c *client) runJob(spec *jobSpec, body []byte, due time.Time, fetchTrace bool) jobRun {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	jr := jobRun{spec: spec, due: due, send: time.Now()}
	code, resp, err := c.post(ctx, body)
	jr.accepted = time.Now()
	if err != nil {
		jr.err = err
		return jr
	}
	if code != http.StatusAccepted {
		jr.err = fmt.Errorf("submit refused: status %d: %s", code, bytes.TrimSpace(resp))
		return jr
	}
	var acc service.JobStatus
	if err := json.Unmarshal(resp, &acc); err != nil {
		jr.err = fmt.Errorf("202 body: %w", err)
		return jr
	}
	jr.stream, err = c.readEvents(ctx, acc.ID)
	jr.final = jr.stream.at
	if err != nil {
		jr.err = err
		return jr
	}
	if jr.err = checkFinal(spec, jr.stream); jr.err != nil || !fetchTrace {
		return jr
	}
	start := time.Now()
	raw, err := c.get(ctx, "/v1/jobs/"+acc.ID+"/trace")
	jr.traceDownload = time.Since(start)
	if err != nil {
		jr.err = err
		return jr
	}
	tr, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		jr.err = fmt.Errorf("trace of %s: %w", acc.ID, err)
	} else if got := tr.Granules(); got != int64(spec.granules) {
		jr.err = fmt.Errorf("trace of %s completes %d granules, spec has %d", acc.ID, got, spec.granules)
	}
	return jr
}

// checkFinal is the per-job correctness check on the service path.
func checkFinal(spec *jobSpec, st stream) error {
	if st.finals != 1 {
		return fmt.Errorf("%d final events, want exactly 1", st.finals)
	}
	f := st.last
	if f.State != "done" || f.Report == nil || f.Report.Exec == nil {
		return fmt.Errorf("final state %q: %s", f.State, f.Error)
	}
	ex := f.Report.Exec
	if ex.Tasks != ex.Sched.Dispatches || ex.Tasks != ex.Sched.Completions {
		return fmt.Errorf("tasks %d, dispatches %d, completions %d disagree", ex.Tasks, ex.Sched.Dispatches, ex.Sched.Completions)
	}
	if ex.Tasks < int64(spec.minTasks) || ex.Tasks > int64(spec.granules) {
		return fmt.Errorf("tasks %d outside [%d, %d] for the spec", ex.Tasks, spec.minTasks, spec.granules)
	}
	return nil
}

// promSample reads one un-labelled sample from Prometheus text.
func promSample(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// promQuantile reads quantile q of histogram name from Prometheus text:
// the upper bound of the first cumulative bucket that reaches q·count.
func promQuantile(text []byte, name string, q float64) float64 {
	count := promSample(text, name+"_count")
	if count == 0 {
		return 0
	}
	prefix := name + `_bucket{le="`
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, cum, ok := strings.Cut(rest, `"} `)
		if !ok || le == "+Inf" {
			continue
		}
		if c, _ := strconv.ParseFloat(cum, 64); c >= q*count {
			v, _ := strconv.ParseFloat(le, 64)
			return v
		}
	}
	return 0
}
