package sim

// JSON codec for MgmtModel: reports on the service daemon's wire carry
// the model by its stable string name ("steals-worker", "dedicated",
// …), never the enum's numeric value.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
)

// MarshalJSON encodes the model as its string name.
func (m MgmtModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON decodes a model from its string name (or, leniently,
// the numeric enum value).
func (m *MgmtModel) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		mm, err := ParseModel(s)
		if err != nil {
			return err
		}
		*m = mm
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	if int(n) >= len(kinds) {
		return fmt.Errorf("sim: unknown management model %d", n)
	}
	*m = MgmtModel(n)
	return nil
}

// jobResultWire is JobResult's pinned JSON shape: snake_case keys, with
// the Err field flattened to an error string (error values do not
// survive encoding/json round trips).
type jobResultWire struct {
	Name          string     `json:"name"`
	Makespan      int64      `json:"makespan"`
	ComputeUnits  int64      `json:"compute_units"`
	BackfillUnits int64      `json:"backfill_units"`
	HomeWorkers   int        `json:"home_workers"`
	Sched         core.Stats `json:"sched"`
	Error         string     `json:"error,omitempty"`
	Attempts      int        `json:"attempts"`
	// Phases keeps PhaseTrace's own field names, as Result.Phases does.
	Phases []PhaseTrace `json:"phases,omitempty"`
}

// MarshalJSON encodes the result with Err flattened to its message.
func (j JobResult) MarshalJSON() ([]byte, error) {
	w := jobResultWire{
		Name:          j.Name,
		Makespan:      j.Makespan,
		ComputeUnits:  j.ComputeUnits,
		BackfillUnits: j.BackfillUnits,
		HomeWorkers:   j.HomeWorkers,
		Sched:         j.Sched,
		Attempts:      j.Attempts,
		Phases:        j.Phases,
	}
	if j.Err != nil {
		w.Error = j.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form; a non-empty "error" key becomes
// an opaque error carrying the original message.
func (j *JobResult) UnmarshalJSON(b []byte) error {
	var w jobResultWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*j = JobResult{
		Name:          w.Name,
		Makespan:      w.Makespan,
		ComputeUnits:  w.ComputeUnits,
		BackfillUnits: w.BackfillUnits,
		HomeWorkers:   w.HomeWorkers,
		Sched:         w.Sched,
		Attempts:      w.Attempts,
		Phases:        w.Phases,
	}
	if w.Error != "" {
		j.Err = errors.New(w.Error)
	}
	return nil
}
