package enable

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/granule"
)

func collectEnabled(t *Table, p granule.ID) []granule.ID {
	var out []granule.ID
	t.Complete(p, func(r granule.ID) { out = append(out, r) })
	return out
}

// readyRuns returns the runs of tab's ready-at-start successors, of which
// there are n.
func readyRuns(tab *Table, n int) []granule.Range {
	var out []granule.Range
	tab.ReadyAtStart().Runs(granule.Span(n), func(r granule.Range) { out = append(out, r) })
	return out
}

func TestBuildUniversal(t *testing.T) {
	tab, err := Build(NewUniversal(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ready := tab.ReadyAtStart().Count(granule.Span(7)); ready != 7 || tab.Pending() != 0 {
		t.Fatalf("universal: ready=%d pending=%d", ready, tab.Pending())
	}
	if got := collectEnabled(tab, 3); got != nil {
		t.Fatalf("universal Complete enabled %v", got)
	}
}

func TestBuildNull(t *testing.T) {
	tab, err := Build(NewNull(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ready := tab.ReadyAtStart().Count(granule.Span(7)); ready != 0 || tab.Pending() != 7 {
		t.Fatalf("null: ready=%d pending=%d", ready, tab.Pending())
	}
	if got := collectEnabled(tab, 3); got != nil {
		t.Fatalf("null Complete enabled %v", got)
	}
	tabNil, err := Build(nil, 4, 4)
	if err != nil || tabNil.Kind() != Null {
		t.Fatalf("nil spec: %v %v", tabNil.Kind(), err)
	}
}

func TestBuildIdentity(t *testing.T) {
	tab, err := Build(NewIdentity(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Successor granules 5..7 have no dependence: ready at start.
	if got := readyRuns(tab, 8); !slices.Equal(got, []granule.Range{granule.R(5, 8)}) {
		t.Fatalf("identity readyAtStart = %v", got)
	}
	if tab.Pending() != 5 {
		t.Fatalf("identity pending = %d", tab.Pending())
	}
	for p := granule.ID(0); p < 5; p++ {
		got := collectEnabled(tab, p)
		if len(got) != 1 || got[0] != p {
			t.Fatalf("identity Complete(%d) = %v", p, got)
		}
	}
	if tab.Pending() != 0 {
		t.Fatalf("identity pending after all = %d", tab.Pending())
	}
}

func TestBuildIdentityShortSuccessor(t *testing.T) {
	tab, err := Build(NewIdentity(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ready := readyRuns(tab, 5); ready != nil || tab.Pending() != 5 {
		t.Fatalf("ready=%v pending=%d", ready, tab.Pending())
	}
	if got := collectEnabled(tab, 6); got != nil {
		t.Fatalf("Complete(6) beyond successor = %v", got)
	}
	if got := collectEnabled(tab, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Complete(2) = %v", got)
	}
}

// TestCompleteIdentityMatchesComplete: the per-run form emits and retires
// exactly what per-granule Complete calls do, including past the end of a
// shorter successor phase.
func TestCompleteIdentityMatchesComplete(t *testing.T) {
	for _, run := range []granule.Range{granule.R(0, 3), granule.R(2, 6), granule.R(4, 6), granule.R(5, 5)} {
		byRun, _ := Build(NewIdentity(), 6, 4)
		byGranule, _ := Build(NewIdentity(), 6, 4)
		var want []granule.ID
		run.Each(func(p granule.ID) { want = append(want, collectEnabled(byGranule, p)...) })
		got := byRun.CompleteIdentity(run)
		if !slices.Equal(got.IDs(), want) || byRun.Pending() != byGranule.Pending() {
			t.Errorf("run %v: enabled %v with %d pending; per granule %v with %d pending",
				run, got, byRun.Pending(), want, byGranule.Pending())
		}
	}
}

func TestBuildForward(t *testing.T) {
	// imap: p -> p/2 (two preds per successor granule).
	imap := []granule.ID{0, 0, 1, 1, 2, 2}
	tab, err := Build(NewForwardIMAP(imap), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	// successor 3 has no enabler: ready at start.
	if got := readyRuns(tab, 4); !slices.Equal(got, []granule.Range{granule.R(3, 4)}) {
		t.Fatalf("forward readyAtStart = %v", got)
	}
	if tab.Pending() != 3 {
		t.Fatalf("forward pending = %d", tab.Pending())
	}
	if got := collectEnabled(tab, 0); got != nil {
		t.Fatalf("first of two completions enabled %v", got)
	}
	if got := collectEnabled(tab, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("second completion = %v", got)
	}
	if tab.BuildCost() != int64(len(imap))*CostPerEntry {
		t.Fatalf("forward build cost = %d", tab.BuildCost())
	}
}

func TestBuildReverse(t *testing.T) {
	// successor r requires current granules {r, r+1}.
	spec := NewReverse(func(r granule.ID) []granule.ID {
		return []granule.ID{r, r + 1}
	})
	tab, err := Build(spec, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ready := readyRuns(tab, 4); tab.Pending() != 4 || ready != nil {
		t.Fatalf("reverse pending=%d ready=%v", tab.Pending(), ready)
	}
	// Complete 0..4 in order; successor r fires when r+1 completes.
	fired := map[granule.ID]bool{}
	for p := granule.ID(0); p < 5; p++ {
		for _, r := range collectEnabled(tab, p) {
			fired[r] = true
		}
		if p >= 1 && !fired[p-1] {
			t.Fatalf("successor %d not fired after completing %d", p-1, p)
		}
	}
	if len(fired) != 4 || tab.Pending() != 0 {
		t.Fatalf("fired=%v pending=%d", fired, tab.Pending())
	}
}

func TestBuildReverseDuplicateRequirements(t *testing.T) {
	spec := NewReverse(func(r granule.ID) []granule.ID {
		return []granule.ID{0, 0, 0} // duplicates must count once
	})
	tab, err := Build(spec, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := collectEnabled(tab, 0)
	if len(got) != 2 {
		t.Fatalf("duplicate reqs: Complete(0) enabled %v", got)
	}
}

// reverseRows expands a successor-side requirement table into the rows
// Build must produce: for each current granule, the successors that name
// it at least once, ascending.
func reverseRows(reqs [][]granule.ID, nPred int) [][]granule.ID {
	rows := make([][]granule.ID, nPred)
	for r, list := range reqs {
		seen := map[granule.ID]bool{}
		for _, p := range list {
			if !seen[p] {
				seen[p] = true
				rows[p] = append(rows[p], granule.ID(r))
			}
		}
	}
	return rows
}

// TestBuildReverseRows: duplicated requirements count once wherever they
// sit in the list, empty lists make their successor ready at start, the
// rows come out in ascending successor order, and the build cost is the
// number of distinct entries — for both kinds that arrive transposed.
func TestBuildReverseRows(t *testing.T) {
	reqs := [][]granule.ID{
		{2, 0, 2, 0}, // duplicates, interleaved
		{},           // no requirement: ready at start
		{4, 4, 4},    // one requirement, repeated
		{0, 1, 2, 3, 4},
		nil, // likewise ready at start
		{3, 0, 3},
	}
	const nPred = 6 // granule 5 is required by nobody
	for _, mk := range []func(RequiresFn) *Spec{NewReverse, NewSeam} {
		spec := mk(func(r granule.ID) []granule.ID { return reqs[r] })
		tab, err := Build(spec, nPred, len(reqs))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readyRuns(tab, len(reqs)), []granule.Range{granule.R(1, 2), granule.R(4, 5)}; !slices.Equal(got, want) {
			t.Errorf("%v: ready at start %v, want %v", spec.Kind, got, want)
		}
		if tab.Pending() != 4 {
			t.Errorf("%v: pending %d, want 4", spec.Kind, tab.Pending())
		}
		if tab.BuildCost() != 10*CostPerEntry {
			t.Errorf("%v: build cost %d, want 10 distinct entries", spec.Kind, tab.BuildCost())
		}
		rows := reverseRows(reqs, nPred)
		for p := granule.ID(0); p < nPred; p++ {
			if got := tab.row(p); !slices.Equal(got, rows[p]) {
				t.Errorf("%v: row %d = %v, want %v", spec.Kind, p, got, rows[p])
			}
		}
		// Completing every current granule once fires every pending
		// successor exactly once.
		fired := map[granule.ID]int{}
		for p := granule.ID(0); p < nPred; p++ {
			for _, r := range collectEnabled(tab, p) {
				fired[r]++
			}
		}
		if want := map[granule.ID]int{0: 1, 2: 1, 3: 1, 5: 1}; !reflect.DeepEqual(fired, want) || tab.Pending() != 0 {
			t.Errorf("%v: fired %v (pending %d), want %v", spec.Kind, fired, tab.Pending(), want)
		}
	}
}

// TestBuildReverseAllocsIndependentOfSize: compiling a reverse map
// allocates its handful of arrays, not per granule — the same small bound
// holds at 256 granules and at 16 384 (the requirement-list array starts at
// one slot per successor and doubles, so its growth depends on the mean
// list length, which is fixed here) — and a table over a compiled map is
// the table and its counters.
func TestBuildReverseAllocsIndependentOfSize(t *testing.T) {
	for _, n := range []int{256, 16384} {
		lists := make([][]granule.ID, n)
		for r := range lists {
			lists[r] = []granule.ID{granule.ID(r), granule.ID((r + 1) % n), granule.ID((r + 7) % n), granule.ID(r)}
		}
		requires := func(r granule.ID) []granule.ID { return lists[r] }
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Build(NewReverse(requires), n, n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("first Build of %d granules made %.0f allocations, want at most 16 at any size", n, allocs)
		}
		spec := NewReverse(requires)
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := Build(spec, n, n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("Build of %d granules over a compiled spec made %.0f allocations, want 2", n, allocs)
		}
	}
}

// countingReverse is a reverse spec over lists that counts evaluations.
func countingReverse(lists [][]granule.ID, calls *int) *Spec {
	return NewReverse(func(r granule.ID) []granule.ID {
		*calls++
		return lists[r]
	})
}

// TestCompileMemoisedPerSize: one Spec shared by phase pairs of different
// sizes is compiled once for each size, each compiled map is right for its
// size, and going back to a size already met evaluates nothing.
func TestCompileMemoisedPerSize(t *testing.T) {
	lists := [][]granule.ID{{0, 1}, {1}, {2, 0}, {1, 1}, {}, {0}}
	calls := 0
	spec := countingReverse(lists, &calls)
	for _, size := range []struct{ nPred, nSucc, calls int }{
		{3, 6, 6}, {3, 4, 10}, {3, 6, 10}, {5, 4, 14}, {3, 4, 14},
	} {
		tab, err := Build(spec, size.nPred, size.nSucc)
		if err != nil {
			t.Fatal(err)
		}
		if calls != size.calls {
			t.Errorf("(%d, %d): %d evaluations so far, want %d", size.nPred, size.nSucc, calls, size.calls)
		}
		rows := reverseRows(lists[:size.nSucc], size.nPred)
		for p := granule.ID(0); int(p) < size.nPred; p++ {
			if got := tab.row(p); !slices.Equal(got, rows[p]) {
				t.Errorf("(%d, %d): row %d = %v, want %v", size.nPred, size.nSucc, p, got, rows[p])
			}
		}
	}
	// Size (2, 6) leaves list 2's granule 2 out of range: an error, and
	// not one that poisons the sizes that compiled.
	if _, err := Build(spec, 2, 6); err == nil {
		t.Error("out-of-range requirement compiled")
	}
	if _, err := Build(spec, 3, 6); err != nil {
		t.Errorf("a failed size broke a compiled one: %v", err)
	}
}

// TestTablesShareMapNotCounters: two tables over one compiled map complete
// independently.
func TestTablesShareMapNotCounters(t *testing.T) {
	spec := NewReverse(func(r granule.ID) []granule.ID { return []granule.ID{0, 1} })
	a, _ := Build(spec, 2, 3)
	b, _ := Build(spec, 2, 3)
	if a.Map != b.Map {
		t.Fatal("two tables of one spec and size were compiled separately")
	}
	collectEnabled(a, 0)
	if got := collectEnabled(a, 1); len(got) != 3 || a.Pending() != 0 {
		t.Fatalf("first table: enabled %v, pending %d", got, a.Pending())
	}
	if b.Pending() != 3 {
		t.Fatalf("completing one table moved the other's pending count to %d", b.Pending())
	}
	if got := collectEnabled(b, 1); len(got) != 0 {
		t.Fatalf("second table enabled %v after one of two requirements", got)
	}
}

// TestCompileRecoversMappingPanic: a mapping function that panics fails the
// compilation with an error, for each direction, and nothing is memoised.
func TestCompileRecoversMappingPanic(t *testing.T) {
	armed := true
	boom := func(g granule.ID) []granule.ID {
		if armed && g == 2 {
			panic("boom")
		}
		return []granule.ID{g}
	}
	for _, spec := range []*Spec{NewForward(boom), NewReverse(boom), NewSeam(boom)} {
		armed = true
		if _, err := spec.Compile(4, 4); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%v: Compile = %v, want the panic as an error", spec.Kind, err)
		}
		armed = false
		if _, err := spec.Compile(4, 4); err != nil {
			t.Errorf("%v: a failed compilation was kept: %v", spec.Kind, err)
		}
	}
}

func TestBuildSeam(t *testing.T) {
	spec := NewSeam(func(r granule.ID) []granule.ID {
		var out []granule.ID
		if r > 0 {
			out = append(out, r-1)
		}
		out = append(out, r)
		if int(r) < 3 {
			out = append(out, r+1)
		}
		return out
	})
	tab, err := Build(spec, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Kind() != Seam || tab.Pending() != 4 {
		t.Fatalf("seam: kind=%v pending=%d", tab.Kind(), tab.Pending())
	}
	// Completing 0,1 enables successor 0 only.
	if got := collectEnabled(tab, 0); got != nil {
		t.Fatalf("seam early enable %v", got)
	}
	if got := collectEnabled(tab, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("seam Complete(1) = %v", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(NewForwardIMAP([]granule.ID{99}), 1, 4); err == nil {
		t.Error("out-of-range forward map not rejected")
	}
	bad := NewReverse(func(r granule.ID) []granule.ID { return []granule.ID{-1} })
	if _, err := Build(bad, 4, 4); err == nil {
		t.Error("negative requirement not rejected")
	}
	if _, err := Build(NewUniversal(), -1, 4); err == nil {
		t.Error("negative nPred not rejected")
	}
	if _, err := Build(&Spec{Kind: Kind(99)}, 2, 2); err == nil {
		t.Error("invalid kind not rejected")
	}
	if _, err := Build(&Spec{Kind: ForwardIndirect}, 2, 2); err == nil {
		t.Error("forward spec without function not rejected")
	}
	if _, err := Build(&Spec{Kind: ReverseIndirect}, 2, 2); err == nil {
		t.Error("reverse spec without function not rejected")
	}
}

func TestSpecConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"NewForward(nil)":       func() { NewForward(nil) },
		"NewReverse(nil)":       func() { NewReverse(nil) },
		"NewSeam(nil)":          func() { NewSeam(nil) },
		"NewReverseIMAP(fan<1)": func() { NewReverseIMAP(nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCompleteRange(t *testing.T) {
	tab, err := Build(NewIdentity(), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	enabled := granule.NewBitmap(10)
	touched := tab.CompleteRange(granule.R(2, 6), enabled)
	if touched != 4 || enabled.Count(granule.Span(10)) != 4 || !enabled.All(granule.R(2, 6)) {
		t.Fatalf("CompleteRange: touched=%d enabled=%v", touched, enabled)
	}
}

func TestPredsFor(t *testing.T) {
	// Reverse: r requires {2r, 2r+1}.
	spec := NewReverse(func(r granule.ID) []granule.ID {
		return []granule.ID{2 * r, 2*r + 1}
	})
	tab, err := Build(spec, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// predsFor asks tab for the predecessors of the successors in succ.
	predsFor := func(tab *Table, succ granule.Range) (granule.Bitmap, int) {
		succs, preds := granule.NewBitmap(8), granule.NewBitmap(8)
		succs.Set(succ)
		return preds, tab.PredsFor(succs, preds)
	}
	preds, scanned := predsFor(tab, granule.R(1, 3)) // successors 1,2
	if preds.Count(granule.Span(8)) != 4 || !preds.All(granule.R(2, 6)) {
		t.Fatalf("PredsFor = %v (scanned %d)", preds, scanned)
	}
	if scanned == 0 {
		t.Fatal("PredsFor reported zero scan cost for indirect mapping")
	}

	idTab, _ := Build(NewIdentity(), 8, 8)
	preds, _ = predsFor(idTab, granule.R(5, 7))
	if preds.Count(granule.Span(8)) != 2 || !preds.All(granule.R(5, 7)) {
		t.Fatalf("identity PredsFor = %v", preds)
	}

	uniTab, _ := Build(NewUniversal(), 8, 8)
	preds, scanned = predsFor(uniTab, granule.R(0, 8))
	if preds.Any(granule.Span(8)) || scanned != 0 {
		t.Fatalf("universal PredsFor = %v scanned=%d", preds, scanned)
	}
}

// TestTableQuickExactlyOnce: for random indirect mappings, running every
// predecessor completion exactly once releases every successor granule
// exactly once, with no early release.
func TestTableQuickExactlyOnce(t *testing.T) {
	f := func(seed int64, nPredRaw, nSuccRaw uint8, reverse bool) bool {
		nPred := int(nPredRaw)%30 + 1
		nSucc := int(nSuccRaw)%30 + 1
		rng := rand.New(rand.NewSource(seed))

		var spec *Spec
		requires := make([][]granule.ID, nSucc)
		if reverse {
			for r := 0; r < nSucc; r++ {
				k := rng.Intn(4)
				for j := 0; j < k; j++ {
					requires[r] = append(requires[r], granule.ID(rng.Intn(nPred)))
				}
			}
			spec = NewReverse(func(r granule.ID) []granule.ID { return requires[r] })
		} else {
			imap := make([]granule.ID, nPred)
			for p := range imap {
				imap[p] = granule.ID(rng.Intn(nSucc))
				requires[imap[p]] = append(requires[imap[p]], granule.ID(p))
			}
			spec = NewForwardIMAP(imap)
		}

		tab, err := Build(spec, nPred, nSucc)
		if err != nil {
			return false
		}
		released := make(map[granule.ID]int)
		for _, rs := range readyRuns(tab, nSucc) {
			rs.Each(func(r granule.ID) { released[r]++ })
		}

		order := rng.Perm(nPred)
		done := make(map[granule.ID]bool)
		for _, pi := range order {
			p := granule.ID(pi)
			done[p] = true
			tab.Complete(p, func(r granule.ID) {
				released[r]++
				// No early release: all requirements of r must be done.
				seen := map[granule.ID]bool{}
				for _, q := range requires[r] {
					if seen[q] {
						continue
					}
					seen[q] = true
					if !done[q] {
						t.Logf("early release of %d before %d", r, q)
						released[r] = -1000
					}
				}
			})
		}
		for r := 0; r < nSucc; r++ {
			if released[granule.ID(r)] != 1 {
				return false
			}
		}
		return tab.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuildReverse compiles a fresh spec per iteration: the one pass
// over the mapping function a program pays.
func BenchmarkBuildReverse(b *testing.B) {
	const n = 1024
	requires := func(r granule.ID) []granule.ID {
		return []granule.ID{r, (r + 1) % n, (r + 7) % n}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(NewReverse(requires), n, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInitTable is what every run after the first pays instead: a
// fresh table's counters.
func BenchmarkInitTable(b *testing.B) {
	const n = 1024
	m, err := NewReverse(func(r granule.ID) []granule.ID {
		return []granule.ID{r, (r + 1) % n, (r + 7) % n}
	}).Compile(n, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InitTable(new(Table))
	}
}

func BenchmarkCompleteIdentity(b *testing.B) {
	const n = 4096
	for i := 0; i < b.N; i++ {
		tab, _ := Build(NewIdentity(), n, n)
		for p := granule.ID(0); p < n; p++ {
			tab.Complete(p, func(granule.ID) {})
		}
	}
}
