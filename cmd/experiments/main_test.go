package main

import (
	"testing"

	rundown "repro"
)

// TestGoroutinesManagerFlag: -manager is parsed once, case-insensitively,
// into E10/E13's manager list; "both" keeps each table's own list, and an
// unknown name is refused.
func TestGoroutinesManagerFlag(t *testing.T) {
	for _, both := range []string{"", "both", "BOTH"} {
		g, err := goroutines(both, 0)
		if err != nil || len(g.Managers) != 0 {
			t.Errorf("-manager %q: managers %v, err %v; want the tables' own lists", both, g.Managers, err)
		}
	}
	g, err := goroutines("SHARDED", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Managers) != 1 || g.Managers[0] != rundown.ShardedManager {
		t.Errorf("-manager SHARDED: managers %v", g.Managers)
	}
	if len(g.Opts) != 1 {
		t.Errorf("-batch: %d Runner options, want 1", len(g.Opts))
	}
	if _, err := goroutines("quantum", 0); err == nil {
		t.Error("unknown manager accepted")
	}
}
