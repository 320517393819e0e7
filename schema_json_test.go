package rundown

// Pins the service wire schema: reports, job reports, fault specs and
// the enum string codecs must keep marshaling to the same keys and
// names, because rundownd clients parse them. A failure here means a
// wire-visible schema break.

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestBackendKindJSON(t *testing.T) {
	names := map[BackendKind]string{
		ExecBackend:    "goroutines",
		PoolBackend:    "pool",
		VirtualBackend: "virtual",
	}
	for bk, want := range names {
		b, err := json.Marshal(bk)
		if err != nil {
			t.Fatalf("marshal %v: %v", bk, err)
		}
		if string(b) != `"`+want+`"` {
			t.Errorf("backend %v marshals to %s, want %q", bk, b, want)
		}
		var back BackendKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != bk {
			t.Errorf("round trip of %v gave %v", bk, back)
		}
	}
	var bk BackendKind
	if err := json.Unmarshal([]byte(`"quantum"`), &bk); err == nil {
		t.Error("unknown backend name unmarshaled without error")
	}
	// The lenient numeric form keeps old stored reports readable.
	if err := json.Unmarshal([]byte(`1`), &bk); err != nil || bk != PoolBackend {
		t.Errorf("numeric backend 1 gave (%v, %v), want PoolBackend", bk, err)
	}
}

func TestEnumStringJSON(t *testing.T) {
	// Manager and model enums ride inside Report; pin their names too.
	for _, m := range []ExecManager{SerialManager, ShardedManager, AsyncManager} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal manager %v: %v", m, err)
		}
		if string(b) != `"`+m.String()+`"` {
			t.Errorf("manager %v marshals to %s", m, b)
		}
		var back ExecManager
		if err := json.Unmarshal(b, &back); err != nil || back != m {
			t.Errorf("manager round trip of %v gave (%v, %v)", m, back, err)
		}
	}
	for _, m := range []MgmtModel{StealsWorker, Dedicated, ShardedMgmt, AdaptiveMgmt, AsyncMgmt} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal model %v: %v", m, err)
		}
		var back MgmtModel
		if err := json.Unmarshal(b, &back); err != nil || back != m {
			t.Errorf("model round trip of %v gave (%v, %v)", m, back, err)
		}
	}
}

func TestJobReportJSONRoundTrip(t *testing.T) {
	in := JobReport{
		Name:           "etl",
		Err:            errors.New("granule 12 exploded"),
		Exec:           &ExecReport{Manager: ShardedManager, Wall: 3 * time.Millisecond, Tasks: 7},
		Backfill:       42,
		Attempts:       2,
		QueueWait:      time.Millisecond,
		DeadlineMargin: -time.Second,
		HasDeadline:    true,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{`"name"`, `"error"`, `"exec"`, `"backfill"`, `"attempts"`,
		`"queue_wait_ns"`, `"deadline_margin_ns"`, `"has_deadline"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JobReport JSON missing pinned key %s: %s", key, b)
		}
	}
	var out JobReport
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Err == nil || out.Err.Error() != in.Err.Error() {
		t.Errorf("error round trip gave %v, want %v", out.Err, in.Err)
	}
	if out.Name != in.Name || out.Backfill != in.Backfill || out.Attempts != in.Attempts ||
		out.QueueWait != in.QueueWait || out.DeadlineMargin != in.DeadlineMargin ||
		!out.HasDeadline || out.Exec == nil || out.Exec.Tasks != 7 || out.Exec.Manager != ShardedManager {
		t.Errorf("round trip mangled fields: %+v", out)
	}

	// A clean report omits the error key entirely.
	clean, err := json.Marshal(JobReport{Name: "ok"})
	if err != nil {
		t.Fatalf("marshal clean: %v", err)
	}
	if strings.Contains(string(clean), `"error"`) {
		t.Errorf("clean JobReport carries an error key: %s", clean)
	}
}

func TestSimJobResultJSONRoundTrip(t *testing.T) {
	in := JobReport{
		Name: "vjob",
		Sim: &SimJobResult{
			Name: "vjob", Makespan: 9000, ComputeUnits: 8000, BackfillUnits: 100,
			HomeWorkers: 4, Attempts: 3, Err: errors.New("deadline"),
		},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out JobReport
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Sim == nil || out.Sim.Makespan != 9000 || out.Sim.Err == nil ||
		out.Sim.Err.Error() != "deadline" || out.Sim.Attempts != 3 {
		t.Errorf("sim result round trip mangled: %+v", out.Sim)
	}
}

func TestReportJSONShape(t *testing.T) {
	rep := &Report{
		Backend:     PoolBackend,
		Manager:     AsyncManager,
		Workers:     8,
		Tasks:       128,
		Wall:        time.Second,
		Utilization: 0.75,
		Pool:        &PoolReport{Workers: 8, Jobs: 2, MaxBackfillTask: 16},
		Jobs:        []JobReport{{Name: "a"}, {Name: "b", Err: errors.New("boom")}},
		Trace:       &Trace{},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(b)
	for _, want := range []string{`"backend":"pool"`, `"manager":"async"`, `"workers":8`,
		`"wall_ns":1000000000`, `"max_backfill_task":16`, `"jobs":[`} {
		if !strings.Contains(s, want) {
			t.Errorf("Report JSON missing pinned fragment %s: %s", want, s)
		}
	}
	// Traces travel only in the binary format; never inline in a report.
	if strings.Contains(s, "Trace") || strings.Contains(s, `"trace"`) {
		t.Errorf("Report JSON inlines the trace: %s", s)
	}
	var out Report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Backend != PoolBackend || out.Manager != AsyncManager ||
		len(out.Jobs) != 2 || out.Jobs[1].Err == nil {
		t.Errorf("report round trip mangled: %+v", out)
	}
}

func TestFaultSpecJSONRoundTrip(t *testing.T) {
	kinds := []FaultKind{
		FaultGrainPanic, FaultGrainError, FaultGrainStall, FaultGrainSlow,
		FaultWorkerCrash, FaultWorkerWedge, FaultWorkerSlow, FaultMgmtDelay,
		FaultDropWakeup,
	}
	in := FaultSpec{Seed: 7}
	for i, k := range kinds {
		in.Rules = append(in.Rules, FaultRule{
			Kind: k, Job: i, Phase: -1, Granule: uint32(i), Worker: -1,
			Delay: int64(i), Factor: 3, Count: 1,
		})
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Kinds travel by name, never by enum value.
	for _, name := range []string{"grain-panic", "worker-wedge", "drop-wakeup"} {
		if !strings.Contains(string(b), `"`+name+`"`) {
			t.Errorf("FaultSpec JSON missing kind name %q: %s", name, b)
		}
	}
	var out FaultSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Seed != in.Seed || len(out.Rules) != len(in.Rules) {
		t.Fatalf("round trip shape: got %d rules seed %d", len(out.Rules), out.Seed)
	}
	for i := range in.Rules {
		if out.Rules[i] != in.Rules[i] {
			t.Errorf("rule %d round trip: got %+v want %+v", i, out.Rules[i], in.Rules[i])
		}
	}
	var k FaultKind
	if err := json.Unmarshal([]byte(`"grain-meltdown"`), &k); err == nil {
		t.Error("unknown fault kind unmarshaled without error")
	}
	for _, k := range kinds {
		got, err := ParseFaultKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseFaultKind(%q) = (%v, %v)", k.String(), got, err)
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	sn := Snapshot{Backend: PoolBackend, Final: true, Elapsed: time.Second,
		Tasks: 10, Jobs: 1, Utilization: 0.5}
	b, err := json.Marshal(sn)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, want := range []string{`"backend":"pool"`, `"final":true`,
		`"elapsed_ns":1000000000`, `"tasks":10`, `"utilization":0.5`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("Snapshot JSON missing pinned fragment %s: %s", want, b)
		}
	}
}

// TestBackendKindJSONRejectsUnknownValue: the lenient numeric form accepts
// only the enumeration's values. An out-of-range number would decode to a
// kind whose encoding ("BackendKind(9)") the same decoder refuses.
func TestBackendKindJSONRejectsUnknownValue(t *testing.T) {
	for n, want := range []BackendKind{ExecBackend, PoolBackend, VirtualBackend} {
		var bk BackendKind
		if err := json.Unmarshal([]byte(strconv.Itoa(n)), &bk); err != nil || bk != want {
			t.Errorf("numeric backend %d gave (%v, %v), want %v", n, bk, err, want)
		}
	}
	for _, in := range []string{`3`, `9`, `255`} {
		bk := VirtualBackend
		if err := json.Unmarshal([]byte(in), &bk); err == nil || bk != VirtualBackend {
			t.Errorf("numeric backend %s gave (%v, %v), want an error and no change", in, bk, err)
		}
	}
}
