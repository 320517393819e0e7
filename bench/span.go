package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one job share Job; Parent names the span that
// caused this one (0 = none). Nothing inside the program records spans:
// they are all taken from the benchmark's side of the public API.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Scope  string        `json:"scope"` // the workload, or "layers"
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so workloads call it
// unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	scope string // set by the orchestrator between workloads
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records [start, end] and returns the span's id for use as a parent.
func (r *recorder) add(parent, job int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Scope: r.scope, Job: job, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0),
	})
	return id
}

// time runs fn inside a span.
func (r *recorder) time(parent, job int, name string, fn func()) {
	start := time.Now()
	fn()
	r.add(parent, job, name, start, time.Now())
}

// fillSelf sets every span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; a child is clipped to its parent).
func fillSelf(spans []span) {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered time.Duration
		edge := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// selfByName collects self times in milliseconds per span name.
func selfByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.Self))
	}
	return out
}

// dump writes the spans, with self times, as one JSON file and returns
// its path.
func (r *recorder) dump(dir, name string, facts hostFacts) (string, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	fillSelf(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Host  hostFacts `json:"host"`
		Spans []span    `json:"spans"`
	}{facts, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// end sets the end of a span recorded before its children, such as a
// round that must exist for its runs to name it as parent.
func (r *recorder) end(id int, at time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = at.Sub(r.t0)
	r.mu.Unlock()
}
