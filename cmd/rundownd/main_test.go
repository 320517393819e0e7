package main

import (
	"flag"
	"testing"
)

// TestFlagsTakeOnlyManager: the daemon reads one executive flag,
// -manager, so it accepts no other: a flag it would ignore is refused at
// parse time instead.
func TestFlagsTakeOnlyManager(t *testing.T) {
	fs := flag.NewFlagSet("rundownd", flag.ContinueOnError)
	register(fs)
	if fs.Lookup("manager") == nil {
		t.Fatal("no -manager flag")
	}
	for _, name := range []string{"adaptive", "batch", "ready", "low-water"} {
		if fs.Lookup(name) != nil {
			t.Errorf("rundownd registers -%s, which it ignores", name)
		}
	}
}
