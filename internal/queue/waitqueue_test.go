package queue

import (
	"fmt"
	"testing"
	"testing/quick"
)

// add makes a record holding v and queues it in class c.
func add[T any](w *Wait[T], v T, c Class) Index {
	i := w.New()
	*w.At(i) = v
	w.Push(i, c)
	return i
}

// pop removes the entry Peek names and returns its value and class.
func pop[T any](w *Wait[T]) (v T, c Class, ok bool) {
	i, c := w.Peek()
	if i == 0 {
		return v, c, false
	}
	v = *w.At(i)
	w.Remove(i)
	w.Free(i)
	return v, c, true
}

func TestWaitClassOrder(t *testing.T) {
	var w Wait[string]
	add(&w, "n1", Normal)
	add(&w, "b1", Background)
	add(&w, "r1", Released)
	add(&w, "e1", Elevated)
	add(&w, "n2", Normal)

	want := []string{"e1", "r1", "n1", "n2", "b1"}
	for _, expect := range want {
		v, _, ok := pop(&w)
		if !ok || v != expect {
			t.Fatalf("pop = %q, want %q", v, expect)
		}
	}
	if _, _, ok := pop(&w); ok {
		t.Fatal("pop on empty reported ok")
	}
}

func TestWaitPeekRemove(t *testing.T) {
	var w Wait[int]
	a := add(&w, 1, Released)
	i, c := w.Peek()
	if i != a || c != Released || w.Empty() {
		t.Fatal("Peek broken")
	}
	w.Remove(a)
	if !w.Empty() || w.recs[a].prev != 0 {
		t.Fatal("Remove did not empty queue")
	}
	if i, _ := w.Peek(); i != 0 {
		t.Fatalf("Peek on empty = %d", i)
	}
}

// drain pops w empty and returns the values in dispatch order.
func drain(w *Wait[int]) []int {
	var got []int
	for {
		v, _, ok := pop(w)
		if !ok {
			return got
		}
		got = append(got, v)
	}
}

func TestWaitPromote(t *testing.T) {
	var w Wait[int]
	add(&w, 10, Background)
	add(&w, 11, Background)
	add(&w, 5, Normal)
	w.Promote(Background, Normal)
	// FIFO preserved: 5 was already in Normal, then 10, 11 appended.
	if got := drain(&w); fmt.Sprint(got) != "[5 10 11]" {
		t.Fatalf("order %v want [5 10 11]", got)
	}
}

// TestWaitPromoteSplices pins promotion as a splice of the two classes'
// rings, into an empty class and a non-empty one alike: the entries keep
// their FIFO order behind the class's own, a promoted entry is removed
// like any other, and the emptied class is usable again.
func TestWaitPromoteSplices(t *testing.T) {
	var w Wait[int]
	var recs []Index
	for i := 0; i < 4; i++ {
		recs = append(recs, add(&w, i, Background))
	}
	add(&w, -1, Released)
	w.Promote(Background, Normal)
	w.Remove(recs[1])
	var classes []Class
	w.Each(func(_ Index, c Class) { classes = append(classes, c) })
	if fmt.Sprint(classes) != "[released normal normal normal]" {
		t.Fatalf("classes after promotion %v", classes)
	}
	add(&w, 7, Background)
	add(&w, 8, Background)
	w.Promote(Background, Normal)
	add(&w, 9, Background)
	if got := drain(&w); fmt.Sprint(got) != "[-1 0 2 3 7 8 9]" {
		t.Fatalf("order %v, want [-1 0 2 3 7 8 9]", got)
	}

	// The zero Wait promotes too.
	var z Wait[int]
	z.Promote(Background, Normal)
	add(&z, 1, Background)
	z.Promote(Background, Normal)
	if i, c := z.Peek(); i == 0 || *z.At(i) != 1 || c != Normal {
		t.Fatalf("zero Wait: Peek = %d %v", i, c)
	}
}

func TestWaitEach(t *testing.T) {
	var w Wait[int]
	add(&w, 2, Normal)
	add(&w, 1, Elevated)
	var got []int
	var classes []Class
	w.Each(func(i Index, c Class) { got = append(got, *w.At(i)); classes = append(classes, c) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || classes[0] != Elevated {
		t.Fatalf("Each order %v %v", got, classes)
	}
}

// TestWaitEachRequeues: Each may move the entry it is given into another
// class or to the back of its own, as the scheduler's elevation does; the
// walk visits each entry it started with once, and requeued entries behind
// its position again.
func TestWaitEachRequeues(t *testing.T) {
	var w Wait[int]
	for v := 1; v <= 4; v++ {
		add(&w, v, Normal)
	}
	var seen []int
	w.Each(func(i Index, c Class) {
		v := *w.At(i)
		seen = append(seen, v)
		if v%2 == 0 && c == Normal {
			w.Remove(i)
			w.Free(i)
			add(&w, v*10, Elevated)
			add(&w, v*10+1, Normal)
		}
	})
	if fmt.Sprint(seen) != "[1 2 3 4 21 41]" {
		t.Fatalf("walk visited %v, want [1 2 3 4 21 41]", seen)
	}
	if got := drain(&w); fmt.Sprint(got) != "[20 40 1 3 21 41]" {
		t.Fatalf("order %v, want [20 40 1 3 21 41]", got)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{Elevated: "elevated", Released: "released", Normal: "normal", Background: "background", Class(9): "Class(9)"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// TestWaitQuickDispatchOrder: for any push sequence, the pop order is sorted
// by class, FIFO within class.
func TestWaitQuickDispatchOrder(t *testing.T) {
	type entry struct {
		class Class
		seq   int
	}
	f := func(classesRaw []uint8) bool {
		var w Wait[entry]
		for i, raw := range classesRaw {
			c := Class(raw % uint8(NumClasses))
			add(&w, entry{class: c, seq: i}, c)
		}
		prev := entry{class: 0, seq: -1}
		first := true
		for {
			e, c, ok := pop(&w)
			if !ok {
				break
			}
			if e.class != c {
				return false
			}
			if !first {
				if e.class < prev.class {
					return false // class order violated
				}
				if e.class == prev.class && e.seq < prev.seq {
					return false // FIFO violated
				}
			}
			prev, first = e, false
		}
		return w.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWaitPushPop(b *testing.B) {
	var w Wait[int]
	recs := make([]Index, 256)
	for i := range recs {
		recs[i] = w.New()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range recs {
			w.Push(r, Class(j%NumClasses))
		}
		for range recs {
			i, _ := w.Peek()
			w.Remove(i)
		}
	}
}
