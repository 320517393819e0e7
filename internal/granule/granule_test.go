package granule

import (
	"testing"
)

func TestRangeLenEmpty(t *testing.T) {
	cases := []struct {
		r     Range
		n     int
		empty bool
	}{
		{Range{}, 0, true},
		{R(3, 3), 0, true},
		{R(5, 2), 0, true},
		{R(0, 1), 1, false},
		{R(10, 25), 15, false},
	}
	for _, c := range cases {
		if got := c.r.Len(); got != c.n {
			t.Errorf("%v.Len() = %d, want %d", c.r, got, c.n)
		}
		if got := c.r.Empty(); got != c.empty {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.empty)
		}
	}
}

func TestRangeContains(t *testing.T) {
	r := R(5, 10)
	for id := ID(0); id < 15; id++ {
		want := id >= 5 && id < 10
		if got := r.Contains(id); got != want {
			t.Errorf("Contains(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestRangeIntersect(t *testing.T) {
	cases := []struct{ a, b, want Range }{
		{R(0, 10), R(5, 15), R(5, 10)},
		{R(5, 15), R(0, 10), R(5, 10)},
		{R(0, 5), R(5, 10), R(5, 5)},
		{R(0, 5), R(7, 10), R(7, 7)},
		{R(0, 20), R(5, 10), R(5, 10)},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got != c.want {
			t.Errorf("%v.Intersect(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRangeTakeFront(t *testing.T) {
	r := R(10, 20)
	front, rest := r.TakeFront(4)
	if front != R(10, 14) || rest != R(14, 20) {
		t.Fatalf("TakeFront(4) = %v, %v", front, rest)
	}
	front, rest = r.TakeFront(10)
	if front != r || !rest.Empty() {
		t.Fatalf("TakeFront(len) = %v, %v", front, rest)
	}
	front, rest = r.TakeFront(100)
	if front != r || !rest.Empty() {
		t.Fatalf("TakeFront(>len) = %v, %v", front, rest)
	}
	front, rest = r.TakeFront(0)
	if !front.Empty() || rest != r {
		t.Fatalf("TakeFront(0) = %v, %v", front, rest)
	}
}

func TestRangeChunks(t *testing.T) {
	r := R(0, 10)
	chunks := r.Chunks(3)
	want := []Range{R(0, 3), R(3, 6), R(6, 9), R(9, 10)}
	if len(chunks) != len(want) {
		t.Fatalf("Chunks(3) = %v", chunks)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, chunks[i], want[i])
		}
	}
	if got := r.Chunks(0); len(got) != 10 {
		t.Errorf("Chunks(0) treated grain as 1, got %d chunks", len(got))
	}
	if got := (Range{}).Chunks(3); got != nil {
		t.Errorf("empty.Chunks = %v, want nil", got)
	}
}

func TestRangeIDsEach(t *testing.T) {
	r := R(3, 7)
	ids := r.IDs()
	want := []ID{3, 4, 5, 6}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Phase: 3, Granule: 17}
	if r.String() != "3:17" {
		t.Errorf("Ref.String = %q", r.String())
	}
}

func TestRangeString(t *testing.T) {
	if s := R(1, 4).String(); s != "[1,4)" {
		t.Errorf("String = %q", s)
	}
	if s := (Range{}).String(); s != "[)" {
		t.Errorf("empty String = %q", s)
	}
}

func TestSpan(t *testing.T) {
	if Span(12) != R(0, 12) {
		t.Errorf("Span(12) = %v", Span(12))
	}
}
