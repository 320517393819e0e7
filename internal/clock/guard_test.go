package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockAllowed lists the functions of the wall-clock backends that may
// call time.Now() or time.Since(): the few places that stamp a lifetime
// for a report — a pool's start and end, a job's submission, activation
// and retirement, an observer snapshot's elapsed time. Everything else
// measures intervals and reads clock.Now.
var wallClockAllowed = map[string]bool{
	"tenant/tenant.go:NewPool":     true,
	"tenant/tenant.go:Submit":      true,
	"tenant/tenant.go:Close":       true,
	"tenant/lifecycle.go:activate": true,
	"tenant/lifecycle.go:retire":   true,
	"tenant/observe.go:snapshot":   true,
}

// TestNoWallClockOnHotPaths fails when a non-test file of the goroutine
// executive or the tenant pool calls time.Now() or time.Since() outside
// the allow-list: a wall-clock reading costs two clock reads and makes an
// interval an NTP step can stretch or invert.
func TestNoWallClockOnHotPaths(t *testing.T) {
	for _, pkg := range []string{"executive", "tenant"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources found for %s: %v", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				where := pkg + "/" + filepath.Base(path) + ":" + fn.Name.Name
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" && !wallClockAllowed[where] {
						t.Errorf("%s: time.%s() in %s — use clock.Now() for intervals, or add the function to the allow-list if it stamps a report",
							fset.Position(sel.Pos()), sel.Sel.Name, where)
					}
					return true
				})
			}
		}
	}
}

// TestNowIsMonotonic pins the two properties callers rely on: readings
// never go backwards, and Sub is their difference.
func TestNowIsMonotonic(t *testing.T) {
	prev := Now()
	for i := 0; i < 1000; i++ {
		now := Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d after %d", now, prev)
		}
		if d := now.Sub(prev); int64(d) != int64(now-prev) {
			t.Fatalf("Sub(%d, %d) = %d", now, prev, d)
		}
		prev = now
	}
}

// TestOrNow: the zero Stamp is the chain's "not read yet" and OrNow reads
// for it; a reading already taken is handed on untouched.
func TestOrNow(t *testing.T) {
	before := Now()
	got := Stamp(0).OrNow()
	if after := Now(); got < before || got > after {
		t.Fatalf("Stamp(0).OrNow() = %d, want a reading between %d and %d", got, before, after)
	}
	if got := before.OrNow(); got != before {
		t.Fatalf("%d.OrNow() = %d, want the stamp itself", before, got)
	}
}
