package queue

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestWaitClassOrder(t *testing.T) {
	w := NewWait[string]()
	w.Push(NewNode("n1"), Normal)
	w.Push(NewNode("b1"), Background)
	w.Push(NewNode("r1"), Released)
	w.Push(NewNode("e1"), Elevated)
	w.Push(NewNode("n2"), Normal)

	want := []string{"e1", "r1", "n1", "n2", "b1"}
	for _, expect := range want {
		n, _, ok := w.Pop()
		if !ok || n.Value != expect {
			t.Fatalf("Pop = %v, want %q", n, expect)
		}
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("Pop on empty reported ok")
	}
}

func TestWaitPushFront(t *testing.T) {
	w := NewWait[int]()
	w.Push(NewNode(1), Normal)
	w.PushFront(NewNode(0), Normal)
	n, c, _ := w.Pop()
	if n.Value != 0 || c != Normal {
		t.Fatalf("Pop = %d class %v", n.Value, c)
	}
}

func TestWaitPeekRemove(t *testing.T) {
	w := NewWait[int]()
	a := NewNode(1)
	w.Push(a, Released)
	n, c, ok := w.Peek()
	if !ok || n != a || c != Released || w.Len() != 1 {
		t.Fatal("Peek broken")
	}
	w.Remove(a, Released)
	if !w.Empty() {
		t.Fatal("Remove did not empty queue")
	}
}

// drain pops w empty and returns the values in dispatch order.
func drain(w *Wait[int]) []int {
	var got []int
	for {
		n, _, ok := w.Pop()
		if !ok {
			return got
		}
		got = append(got, n.Value)
	}
}

func TestWaitPromote(t *testing.T) {
	w := NewWait[int]()
	w.Push(NewNode(10), Background)
	w.Push(NewNode(11), Background)
	w.Push(NewNode(5), Normal)
	w.Promote(Background, Normal)
	if w.Len() != 3 {
		t.Fatalf("promote: Len = %d, want 3", w.Len())
	}
	// FIFO preserved: 5 was already in Normal, then 10, 11 appended.
	if got := drain(w); fmt.Sprint(got) != "[5 10 11]" {
		t.Fatalf("order %v want [5 10 11]", got)
	}
}

// TestWaitPromoteSwapsRings pins promotion on both of its paths. Into an
// empty class the two classes' rings are swapped: the entries keep their
// FIFO order, and a promoted node belongs to its new class — removing it
// under its old class still panics, under the new one it succeeds. Into a
// non-empty class the entries are drained across behind the class's own.
func TestWaitPromoteSwapsRings(t *testing.T) {
	w := NewWait[int]()
	var nodes []*Node[int]
	for i := 0; i < 4; i++ {
		n := NewNode(i)
		nodes = append(nodes, n)
		w.Push(n, Background)
	}
	w.Push(NewNode(-1), Released)
	w.Promote(Background, Normal)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("removing a promoted node under its old class did not panic")
			}
		}()
		w.Remove(nodes[1], Background)
	}()
	w.Remove(nodes[1], Normal)
	var classes []Class
	w.Each(func(_ *Node[int], c Class) { classes = append(classes, c) })
	if fmt.Sprint(classes) != "[released normal normal normal]" {
		t.Fatalf("classes after promotion %v", classes)
	}
	// The emptied class is usable again, and a later promotion into the
	// now non-empty Normal class drains behind it.
	w.Push(NewNode(7), Background)
	w.Push(NewNode(8), Background)
	w.Promote(Background, Normal)
	w.Push(NewNode(9), Background)
	if got := drain(w); fmt.Sprint(got) != "[-1 0 2 3 7 8 9]" {
		t.Fatalf("order %v, want [-1 0 2 3 7 8 9]", got)
	}

	// The zero Wait promotes too.
	var z Wait[int]
	z.Promote(Background, Normal)
	z.Push(NewNode(1), Background)
	z.Promote(Background, Normal)
	if n, c, ok := z.Peek(); !ok || n.Value != 1 || c != Normal {
		t.Fatalf("zero Wait: Peek = %v %v %v", n, c, ok)
	}
}

func TestWaitEach(t *testing.T) {
	w := NewWait[int]()
	w.Push(NewNode(2), Normal)
	w.Push(NewNode(1), Elevated)
	var got []int
	var classes []Class
	w.Each(func(n *Node[int], c Class) { got = append(got, n.Value); classes = append(classes, c) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || classes[0] != Elevated {
		t.Fatalf("Each order %v %v", got, classes)
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
		w := NewWait[entry]()
		for i, raw := range classesRaw {
			c := Class(raw % uint8(NumClasses))
			w.Push(NewNode(entry{class: c, seq: i}), c)
		}
		prev := entry{class: 0, seq: -1}
		first := true
		for {
			n, c, ok := w.Pop()
			if !ok {
				break
			}
			e := n.Value
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
	w := NewWait[int]()
	nodes := make([]*Node[int], 256)
	for i := range nodes {
		nodes[i] = NewNode(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range nodes {
			w.Push(n, Class(j%NumClasses))
		}
		for range nodes {
			w.Pop()
		}
	}
}
