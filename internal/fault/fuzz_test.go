package fault

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzFaultSpecJSON: no body panics the Spec decoder, every spec it
// accepts holds only kinds inside the enumeration, and it re-marshals to
// a body that decodes to the same spec. The seed corpus under
// testdata/fuzz/FuzzFaultSpecJSON — every kind by name and by number,
// and the kind-less, out-of-range and unknown-field rules the decoder
// refuses — runs with a plain `go test`.
func FuzzFaultSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		for _, r := range spec.Rules {
			if r.Kind < GrainPanic || r.Kind >= kindCount {
				t.Fatalf("%s decoded to kind %d, outside the enumeration", body, r.Kind)
			}
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s decoded to %+v, which does not marshal: %v", body, spec, err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-marshaled %s does not decode: %v", b, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("%s decoded to %+v, its re-marshal %s to %+v", body, spec, b, back)
		}
	})
}
