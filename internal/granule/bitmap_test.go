package granule

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refSet is the reference the Bitmap is checked against: a map of granules.
type refSet map[ID]bool

func (m refSet) addRange(r Range)    { r.Each(func(id ID) { m[id] = true }) }
func (m refSet) removeRange(r Range) { r.Each(func(id ID) { delete(m, id) }) }

// runs returns the maximal runs inside r of the granules in the set (in) or
// out of it, ascending.
func (m refSet) runs(r Range, in bool) []Range {
	var out []Range
	for g := r.Lo; g < r.Hi; g++ {
		if m[g] != in {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Hi == g {
			out[n-1].Hi++
		} else {
			out = append(out, R(g, g+1))
		}
	}
	return out
}

// collect returns what a run walk (Bitmap.Runs or Bitmap.Gaps) yields over r.
func collect(walk func(Range, func(Range)), r Range) []Range {
	var out []Range
	walk(r, func(x Range) { out = append(out, x) })
	return out
}

// TestBitmapAgainstSet drives a Bitmap and the map-based reference with
// the same random Set, Clear and AndNot operations — ranges biased to start
// and end at the 63/64/65 word edges — and after every one requires each
// read (Has, Any, All, Count, Runs, Gaps) to agree over random ranges,
// including ranges past the end of the storage, which read as clear. The
// zero-granule case is the nil Bitmap.
func TestBitmapAgainstSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	edge := func(n int) ID {
		if rng.Intn(2) == 0 {
			return ID(rng.Intn(n + 1))
		}
		g := 64*rng.Intn(n/64+1) + rng.Intn(3) - 1 // a word boundary, or one either side
		return ID(min(max(g, 0), n))
	}
	randRange := func(n int) Range {
		a, b := edge(n), edge(n)
		if a > b {
			a, b = b, a
		}
		return R(a, b)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 300} {
		for iter := 0; iter < 40; iter++ {
			b, ref := NewBitmap(n), refSet{}
			if n == 0 {
				b = nil
			}
			if len(b) != Words(n) {
				t.Fatalf("NewBitmap(%d) has %d words, want %d", n, len(b), Words(n))
			}
			for step := 0; step < 12; step++ {
				var op string
				switch r := randRange(n); rng.Intn(3) {
				case 0:
					op = "Set " + r.String()
					b.Set(r)
					ref.addRange(r)
				case 1:
					op = "Clear " + r.String()
					b.Clear(r)
					ref.removeRange(r)
				case 2:
					c, cref := NewBitmap(n), refSet{}
					for k := 0; k < 3; k++ {
						r := randRange(n)
						c.Set(r)
						cref.addRange(r)
					}
					op = fmt.Sprint("AndNot ", cref.runs(Span(n), true))
					b.AndNot(c)
					for g := range cref {
						delete(ref, g)
					}
				}
				for probe := 0; probe < 8; probe++ {
					q := randRange(n + 70)
					if g := q.Lo; b.Has(g) != ref[g] {
						t.Fatalf("n=%d after %s: Has(%d) = %v, want %v", n, op, g, b.Has(g), ref[g])
					}
					in := ref.runs(q, true)
					count := 0
					for _, r := range in {
						count += r.Len()
					}
					if got, want := b.Any(q), count > 0; got != want {
						t.Fatalf("n=%d after %s: Any(%v) = %v, want %v", n, op, q, got, want)
					}
					if got, want := b.All(q), count == q.Len(); got != want {
						t.Fatalf("n=%d after %s: All(%v) = %v, want %v", n, op, q, got, want)
					}
					if got := b.Count(q); got != count {
						t.Fatalf("n=%d after %s: Count(%v) = %d, want %d", n, op, q, got, count)
					}
					if got := collect(b.Runs, q); !slices.Equal(got, in) {
						t.Fatalf("n=%d after %s: Runs(%v) = %v, want %v", n, op, q, got, in)
					}
					if got, want := collect(b.Gaps, q), ref.runs(q, false); !slices.Equal(got, want) {
						t.Fatalf("n=%d after %s: Gaps(%v) = %v, want %v", n, op, q, got, want)
					}
				}
			}
		}
	}
}

// The cases below were the run-list set's, whose operations the Bitmap
// took over: adding and removing ranges, and reading the set back as its
// maximal runs.

func TestSetAddCoalesce(t *testing.T) {
	b := NewBitmap(16)
	b.Set(R(0, 5))
	b.Set(R(10, 15))
	if got := collect(b.Runs, Span(16)); !slices.Equal(got, []Range{R(0, 5), R(10, 15)}) || b.Count(Span(16)) != 10 {
		t.Fatalf("runs %v", got)
	}
	b.Set(R(5, 10)) // bridges the gap
	if got := collect(b.Runs, Span(16)); !slices.Equal(got, []Range{R(0, 15)}) || b.Count(Span(16)) != 15 {
		t.Fatalf("after bridge: runs %v", got)
	}
}

func TestSetAddAdjacent(t *testing.T) {
	b := NewBitmap(8)
	b.Set(R(0, 3))
	b.Set(R(3, 6)) // adjacent: one run
	if got := collect(b.Runs, Span(8)); !slices.Equal(got, []Range{R(0, 6)}) {
		t.Fatalf("adjacent not coalesced: %v", got)
	}
}

func TestSetAddOverlapping(t *testing.T) {
	b := NewBitmap(12)
	b.Set(R(2, 8))
	b.Set(R(0, 4))
	b.Set(R(6, 12))
	if got := collect(b.Runs, Span(12)); !slices.Equal(got, []Range{R(0, 12)}) || !b.All(R(0, 12)) || b.Count(Span(12)) != 12 {
		t.Fatalf("runs %v", got)
	}
}

func TestSetRemoveMiddle(t *testing.T) {
	b := NewBitmap(10)
	b.Set(R(0, 10))
	b.Clear(R(3, 7))
	if got := collect(b.Runs, Span(10)); !slices.Equal(got, []Range{R(0, 3), R(7, 10)}) {
		t.Fatalf("runs %v", got)
	}
	if b.Count(Span(10)) != 6 || b.Has(3) || b.Has(6) || !b.Has(2) || !b.Has(7) {
		t.Fatalf("membership wrong: runs %v", collect(b.Runs, Span(10)))
	}
}

func TestSetRemoveSpanningRuns(t *testing.T) {
	b := NewBitmap(16)
	for _, r := range []Range{R(0, 4), R(6, 10), R(12, 16)} {
		b.Set(r)
	}
	b.Clear(R(2, 14))
	if got := collect(b.Runs, Span(16)); !slices.Equal(got, []Range{R(0, 2), R(14, 16)}) {
		t.Fatalf("runs %v", got)
	}
}

func TestSetRemoveDisjoint(t *testing.T) {
	b := NewBitmap(10)
	b.Set(R(0, 4))
	b.Clear(R(6, 10))
	b.Clear(Range{})
	if got := collect(b.Runs, Span(10)); !slices.Equal(got, []Range{R(0, 4)}) {
		t.Fatalf("runs %v", got)
	}
}

func TestSetUnionSubtractIntersect(t *testing.T) {
	a, b, c := NewBitmap(16), NewBitmap(16), NewBitmap(16)
	a.Set(R(0, 10))
	b.Set(R(5, 15))
	b.Runs(Span(16), a.Set) // union
	if a.Count(Span(16)) != 15 {
		t.Fatalf("union: runs %v", collect(a.Runs, Span(16)))
	}
	c.Set(R(0, 5))
	a.AndNot(c) // subtract
	if a.Count(Span(16)) != 10 || a.Has(4) {
		t.Fatalf("subtract: runs %v", collect(a.Runs, Span(16)))
	}
	if a.Count(R(8, 12)) != 4 || !a.All(R(8, 12)) { // intersect
		t.Fatalf("intersect: runs %v", collect(a.Runs, R(8, 12)))
	}
}

// TestSetQuickAgainstModel drives random Set, Clear and take-the-front
// sequences — the last as the scheduler picks a successor subset: the front
// of the first run — and checks the Bitmap against the reference.
func TestSetQuickAgainstModel(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b, m := NewBitmap(80), refSet{}
		for _, raw := range opsRaw {
			lo := ID(rng.Intn(64))
			length := rng.Intn(16)
			r := R(lo, lo+ID(length))
			switch raw % 3 {
			case 0:
				b.Set(r)
				m.addRange(r)
			case 1:
				b.Clear(r)
				m.removeRange(r)
			case 2:
				var front Range
				b.Runs(Span(80), func(x Range) {
					if front.Empty() {
						front, _ = x.TakeFront(length)
					}
				})
				if want := m.runs(Span(80), true); len(want) > 0 && length > 0 && front != R(want[0].Lo, min(want[0].Hi, want[0].Lo+ID(length))) {
					return false
				}
				b.Clear(front)
				m.removeRange(front)
			}
			if !slices.Equal(collect(b.Runs, Span(80)), m.runs(Span(80), true)) {
				t.Logf("model mismatch: bitmap %v, model %v", collect(b.Runs, Span(80)), m.runs(Span(80), true))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetQuickSplitMergeRoundTrip checks the paper's split/merge contract:
// splitting a description into chunks and setting them back in any order
// reconstructs exactly the original description, as one run.
func TestSetQuickSplitMergeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16, grain uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int(n)%500 + 1
		g := int(grain)%37 + 1
		orig := Span(total)
		chunks := orig.Chunks(g)
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		b := NewBitmap(total)
		for _, c := range chunks {
			b.Set(c)
		}
		return slices.Equal(collect(b.Runs, Span(total+64)), []Range{orig}) && b.Count(orig) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapTrySet checks the one-pass guard against the two passes it
// replaces, Any then Set: over ranges inside one word and ranges spanning
// words, starting at offsets 0, 63, 64 and 65, with one granule already set
// at each edge of the range, inside it or just outside it. A range with a
// granule already set must report the clash and leave the bitmap as it was;
// any other must end up set.
func TestBitmapTrySet(t *testing.T) {
	const n = 320 // past every range's end, so granule r.Hi exists
	for _, lo := range []ID{0, 63, 64, 65} {
		for _, length := range []ID{1, 2, 63, 64, 65, 129, 200} {
			r := R(lo, lo+length)
			pre := []ID{r.Lo, r.Lo + length/2, r.Hi - 1, r.Hi, r.Lo - 1}
			for _, g := range pre {
				b := NewBitmap(n)
				if g >= 0 {
					b.Set(R(g, g+1))
				}
				before := slices.Clone(b)
				want := slices.Clone(b)
				wantClash := want.Any(r)
				if !wantClash {
					want.Set(r)
				}
				if got := b.TrySet(r); got != wantClash {
					t.Errorf("TrySet(%v) with granule %d set = %v, want %v", r, g, got, wantClash)
				}
				if !slices.Equal(b, want) {
					t.Errorf("TrySet(%v) with granule %d set left %x, want %x (before %x)", r, g, b, want, before)
				}
			}
		}
	}
}
