package tenant

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/trace"
)

// checkJobTrace compares j.Trace() — the extent read — against the
// whole-recorder reference, Take().FilterJob, event for event.
func checkJobTrace(t *testing.T, rec *trace.Recorder, j *Job) *trace.Trace {
	t.Helper()
	got, err := j.Trace()
	if err != nil {
		t.Fatalf("%s: Trace: %v", j.Name(), err)
	}
	want := rec.Take().FilterJob(j.Index())
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Fatalf("%s: meta %+v, want %+v", j.Name(), got.Meta, want.Meta)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: extent read has %d events, FilterJob %d", j.Name(), len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d is %v, FilterJob has %v", j.Name(), i, got.Events[i], want.Events[i])
		}
	}
	return got
}

// TestJobTraceMatchesFilterJob is the differential test of the per-job
// read: on a pool trace with backfill, an aborted job and a retried job,
// every finished job's Trace() equals Take().FilterJob(index) — checked
// as each job retires, while the others' workers are still recording,
// and again for all of them after Close.
func TestJobTraceMatchesFilterJob(t *testing.T) {
	for _, kind := range executive.ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			const flakyIdx = 3
			rec := trace.NewRecorder(trace.Meta{}, 4)
			p, err := NewPool(Config{
				Workers: 4, Manager: kind, DequeCap: 2, Batch: 1,
				Trace: rec,
				Faults: &fault.Spec{Rules: []fault.Rule{{
					Kind: fault.GrainError, Job: flakyIdx, Phase: 1, Granule: 7, Worker: -1, Count: 1,
				}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			blockerProg, fillerProg, verify := buildBackfillPair(t)
			blocker, filler := submitBackfillPair(t, p, blockerProg, fillerProg)

			// doomed fails with nothing else of its own in flight — a
			// barrier, then a single panicking granule — so its trace ends
			// at the abort on both sides of the comparison.
			doomedProg, err := core.NewProgram(
				&core.Phase{Name: "fine", Granules: 32,
					Work: func(granule.ID) { time.Sleep(20 * time.Microsecond) }},
				&core.Phase{Name: "boom", Granules: 1,
					Work: func(granule.ID) { panic("doomed") }},
			)
			if err != nil {
				t.Fatal(err)
			}
			doomed, err := p.Submit(doomedProg, core.Options{Grain: 4}, JobConfig{Name: "doomed"})
			if err != nil {
				t.Fatal(err)
			}
			flakyProg, a, b, c := buildCopyChain(t, 32)
			flaky, err := p.Submit(flakyProg, core.Options{}, JobConfig{
				Name: "flaky", Retry: 2, Backoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if flaky.Index() != flakyIdx {
				t.Fatalf("flaky is job %d, the fault rule names %d", flaky.Index(), flakyIdx)
			}
			steady, err := p.Submit(buildSleepChain(t, 3, 512, 50*time.Microsecond),
				core.Options{Grain: 2, Overlap: true}, JobConfig{Name: "steady"})
			if err != nil {
				t.Fatal(err)
			}

			if _, err := doomed.Wait(); err == nil {
				t.Fatal("doomed succeeded")
			}
			tr := checkJobTrace(t, rec, doomed)
			if n := len(tr.Events); n == 0 || tr.Events[n-1].Kind != trace.KAbort {
				t.Fatalf("doomed's trace does not end in its abort: %v", tr.Events)
			}

			if _, err := flaky.Wait(); err != nil {
				t.Fatalf("flaky failed: %v", err)
			}
			checkCopyChain(t, a, b, c)
			if flaky.Attempts() != 2 {
				t.Fatalf("flaky took %d attempts, want 2", flaky.Attempts())
			}
			tr = checkJobTrace(t, rec, flaky)
			if got := tr.Granules(); got != 3*32 {
				t.Fatalf("flaky's trace completes %d granules, its last attempt ran %d", got, 3*32)
			}

			for _, j := range []*Job{blocker, filler} {
				if _, err := j.Wait(); err != nil {
					t.Fatal(err)
				}
				checkJobTrace(t, rec, j)
			}
			verify()
			if filler.BackfillTasks() == 0 {
				t.Error("the corpus has no backfill")
			} else if tr, _ := filler.Trace(); tr.Count(trace.KBackfill) == 0 {
				t.Error("filler was backfilled but its trace has no backfill record")
			}

			// A running job reads its schedule so far.
			if tr, err := steady.Trace(); err != nil || (steady.State() < Done && tr.Count(trace.KFinish) != 0) {
				t.Fatalf("live trace of steady: %v, err %v", tr, err)
			}
			if _, err := steady.Wait(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Close(); err == nil {
				t.Fatal("Close lost doomed's error")
			}
			for _, j := range []*Job{blocker, filler, doomed, flaky, steady} {
				checkJobTrace(t, rec, j)
			}
		})
	}
}

// A job retired while still queued has an extent of one record; a queued
// job that has not got that far has an empty one; a pool without a
// recorder says so.
func TestJobTraceOfQueuedJob(t *testing.T) {
	rec := trace.NewRecorder(trace.Meta{}, 2)
	p, err := NewPool(Config{Workers: 2, MaxActive: 1, Queue: true, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	front, err := p.Submit(buildSleepChain(t, 2, 64, time.Millisecond), core.Options{Grain: 1}, JobConfig{Name: "front"})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ := buildCopyChain(t, 16)
	queued, err := p.Submit(prog, core.Options{}, JobConfig{Name: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if tr := checkJobTrace(t, rec, queued); len(tr.Events) != 0 {
		t.Fatalf("a queued job has a schedule: %v", tr.Events)
	}
	gone := errors.New("changed my mind")
	queued.Abort(gone)
	if _, err := queued.Wait(); !errors.Is(err, gone) {
		t.Fatalf("queued job error = %v", err)
	}
	if tr := checkJobTrace(t, rec, queued); len(tr.Events) != 1 || tr.Events[0].Kind != trace.KAbort {
		t.Fatalf("aborted-in-queue trace = %v, want the one abort", tr.Events)
	}
	if _, err := front.Wait(); err != nil {
		t.Fatal(err)
	}
	checkJobTrace(t, rec, front)
	p.Close()

	bare, err := NewPool(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ = buildCopyChain(t, 4)
	j, err := bare.Submit(prog, core.Options{}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Trace(); err == nil {
		t.Fatal("Trace on a pool without a recorder returned no error")
	}
	bare.Close()
}
