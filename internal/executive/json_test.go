package executive

import (
	"encoding/json"
	"strconv"
	"testing"
)

// TestManagerKindJSONRejectsUnknownValue: the lenient numeric form accepts
// only the enumeration's values. An out-of-range number would decode to a
// kind whose encoding ("ManagerKind(9)") the same decoder refuses.
func TestManagerKindJSONRejectsUnknownValue(t *testing.T) {
	for n, want := range ManagerKinds() {
		var k ManagerKind
		if err := json.Unmarshal([]byte(strconv.Itoa(n)), &k); err != nil || k != want {
			t.Errorf("numeric manager %d gave (%v, %v), want %v", n, k, err, want)
		}
	}
	for _, in := range []string{strconv.Itoa(len(ManagerKinds())), `9`, `255`} {
		k := AsyncManager
		if err := json.Unmarshal([]byte(in), &k); err == nil || k != AsyncManager {
			t.Errorf("numeric manager %s gave (%v, %v), want an error and no change", in, k, err)
		}
	}
}
