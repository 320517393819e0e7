package sim

import (
	"encoding/json"
	"strconv"
	"testing"
)

// TestMgmtModelJSONRejectsUnknownValue: the lenient numeric form accepts
// only the enumeration's values. An out-of-range number would decode to a
// model whose encoding ("MgmtModel(9)") the same decoder refuses.
func TestMgmtModelJSONRejectsUnknownValue(t *testing.T) {
	for n := range kinds {
		var m MgmtModel
		if err := json.Unmarshal([]byte(strconv.Itoa(n)), &m); err != nil || m != MgmtModel(n) {
			t.Errorf("numeric model %d gave (%v, %v), want %v", n, m, err, MgmtModel(n))
		}
	}
	for _, in := range []string{strconv.Itoa(len(kinds)), `9`, `255`} {
		m := Async
		if err := json.Unmarshal([]byte(in), &m); err == nil || m != Async {
			t.Errorf("numeric model %s gave (%v, %v), want an error and no change", in, m, err)
		}
	}
}
