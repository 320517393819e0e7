package rundown

// The pinned JSON wire schema for reports — the form the service daemon
// (internal/service, cmd/rundownd) serves and its clients parse. Two
// rules keep the schema stable under struct refactors:
//
//   - enums (BackendKind, ExecManager, MgmtModel, FaultKind) marshal as
//     their stable string names, never as numeric values, through one
//     name table each (internal/enum);
//   - JobReport.Err flattens to an "error" string key, so a report
//     round-trips through JSON with the failure text intact (the typed
//     error chain is a process-local concept and does not travel).
//
// Durations marshal as integer nanoseconds under _ns-suffixed keys (Go's
// time.Duration default), pinned by the schema round-trip tests.

import (
	"encoding/json"
	"errors"
	"time"
)

// MarshalJSON encodes the backend as its string name ("goroutines",
// "pool", "virtual").
func (b BackendKind) MarshalJSON() ([]byte, error) { return backends.Marshal(b) }

// UnmarshalJSON decodes a backend from its string name (or, leniently,
// the numeric enum value).
func (b *BackendKind) UnmarshalJSON(data []byte) error { return backends.Unmarshal(data, b) }

// ParseBackendKind resolves a backend's string name (the
// BackendKind.String form), case-insensitively.
func ParseBackendKind(s string) (BackendKind, error) { return backends.Parse(s) }

// jobReportWire is JobReport's pinned JSON shape: identical fields with
// Err flattened to an error string.
type jobReportWire struct {
	Name           string        `json:"name"`
	Error          string        `json:"error,omitempty"`
	Exec           *ExecReport   `json:"exec,omitempty"`
	Sim            *SimJobResult `json:"sim,omitempty"`
	Backfill       int64         `json:"backfill"`
	Attempts       int           `json:"attempts"`
	QueueWait      time.Duration `json:"queue_wait_ns"`
	DeadlineMargin time.Duration `json:"deadline_margin_ns"`
	HasDeadline    bool          `json:"has_deadline"`
}

// MarshalJSON encodes the report with Err flattened to its message.
func (j JobReport) MarshalJSON() ([]byte, error) {
	w := jobReportWire{
		Name:           j.Name,
		Exec:           j.Exec,
		Sim:            j.Sim,
		Backfill:       j.Backfill,
		Attempts:       j.Attempts,
		QueueWait:      j.QueueWait,
		DeadlineMargin: j.DeadlineMargin,
		HasDeadline:    j.HasDeadline,
	}
	if j.Err != nil {
		w.Error = j.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form; a non-empty "error" key becomes
// an opaque error value carrying the original message (sentinel
// identity does not survive the wire).
func (j *JobReport) UnmarshalJSON(data []byte) error {
	var w jobReportWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*j = JobReport{
		Name:           w.Name,
		Exec:           w.Exec,
		Sim:            w.Sim,
		Backfill:       w.Backfill,
		Attempts:       w.Attempts,
		QueueWait:      w.QueueWait,
		DeadlineMargin: w.DeadlineMargin,
		HasDeadline:    w.HasDeadline,
	}
	if w.Error != "" {
		j.Err = errors.New(w.Error)
	}
	return nil
}
