package service

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzJobSpec: no submit body makes the decode → normalize → buildProgram
// path panic, and every program that path yields is one the scheduler
// accepts — its enablement relations compile. The seed corpus under
// testdata/fuzz/FuzzJobSpec holds one spec per workload kind and mapping
// plus the defaulted and the rejected bodies of the HTTP tests; a plain
// `go test` runs exactly those.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		w := spec.Workload
		if w.Kind == "chain" && w.Phases*w.Granules > 1<<16 {
			t.Skip("within the daemon's limits, beyond a fuzz worker's memory")
		}
		prog, err := spec.buildProgram()
		if err != nil {
			return // an unknown mapping name: the handler's "bad workload"
		}
		if _, err := core.New(prog, spec.options()); err != nil {
			t.Fatalf("built program of %+v refused by the scheduler: %v", spec, err)
		}
	})
}
