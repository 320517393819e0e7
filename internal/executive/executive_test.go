package executive

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// buildCopyChain constructs the paper's canonical identity chain as real
// work: B[i] = A[i] + 1 then C[i] = B[i] * 2, with the identity mapping
// declared between the phases.
func buildCopyChain(t *testing.T, n int) (*core.Program, []int64, []int64, []int64) {
	t.Helper()
	a := make([]int64, n)
	b := make([]int64, n)
	c := make([]int64, n)
	for i := range a {
		a[i] = int64(i * 3)
	}
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "copyAB", Granules: n,
			Work:   func(g granule.ID) { b[g] = a[g] + 1 },
			Enable: enable.NewIdentity(),
		},
		&core.Phase{
			Name: "copyBC", Granules: n,
			Work: func(g granule.ID) { c[g] = b[g] * 2 },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog, a, b, c
}

func checkCopyChain(t *testing.T, a, b, c []int64) {
	t.Helper()
	for i := range a {
		if b[i] != a[i]+1 {
			t.Fatalf("b[%d] = %d, want %d", i, b[i], a[i]+1)
		}
		if c[i] != (a[i]+1)*2 {
			t.Fatalf("c[%d] = %d, want %d", i, c[i], (a[i]+1)*2)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{MgmtRatio: 3.5}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
