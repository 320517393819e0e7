package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRingPushPop(t *testing.T) {
	r := NewRing[int]()
	if !r.Empty() || r.Len() != 0 {
		t.Fatal("new ring not empty")
	}
	for i := 1; i <= 3; i++ {
		r.PushBack(NewNode(i))
	}
	r.PushFront(NewNode(0))
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	for want := 0; want <= 3; want++ {
		n := r.PopFront()
		if n == nil || n.Value != want {
			t.Fatalf("PopFront = %v, want %d", n, want)
		}
		if n.Attached() {
			t.Fatal("popped node still attached")
		}
	}
	if r.PopFront() != nil {
		t.Fatal("PopFront on empty != nil")
	}
}

func TestRingRemoveMiddle(t *testing.T) {
	r := NewRing[int]()
	var nodes []*Node[int]
	for i := 0; i < 5; i++ {
		n := NewNode(i)
		nodes = append(nodes, n)
		r.PushBack(n)
	}
	r.Remove(nodes[2])
	want := []int{0, 1, 3, 4}
	var got []int
	r.Each(func(n *Node[int]) { got = append(got, n.Value) })
	if len(got) != len(want) {
		t.Fatalf("after remove: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after remove: %v, want %v", got, want)
		}
	}
}

func TestRingDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double insert")
		}
	}()
	r := NewRing[int]()
	n := NewNode(1)
	r.PushBack(n)
	r.PushBack(n)
}

func TestRingRemoveForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on foreign remove")
		}
	}()
	r1, r2 := NewRing[int](), NewRing[int]()
	n := NewNode(1)
	r1.PushBack(n)
	r2.Remove(n)
}

func TestRingDrainInto(t *testing.T) {
	src, dst := NewRing[int](), NewRing[int]()
	dst.PushBack(NewNode(0))
	for i := 1; i <= 3; i++ {
		src.PushBack(NewNode(i))
	}
	src.DrainInto(dst)
	if !src.Empty() || dst.Len() != 4 {
		t.Fatalf("src %d dst %d", src.Len(), dst.Len())
	}
	for want := 0; want <= 3; want++ {
		if n := dst.PopFront(); n.Value != want {
			t.Fatalf("order broken at %d: %d", want, n.Value)
		}
	}
}

func TestRingZeroValue(t *testing.T) {
	var r Ring[int]
	r.PushBack(NewNode(7))
	if n := r.PopFront(); n == nil || n.Value != 7 {
		t.Fatal("zero-value ring unusable")
	}
}

// TestRingQuickAgainstSlice models the ring with a plain slice under random
// push-front/push-back/pop-front/remove-anywhere sequences.
func TestRingQuickAgainstSlice(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRing[int]()
		var model []*Node[int]
		for i, op := range ops {
			switch op % 4 {
			case 0:
				n := NewNode(i)
				r.PushBack(n)
				model = append(model, n)
			case 1:
				n := NewNode(i)
				r.PushFront(n)
				model = append([]*Node[int]{n}, model...)
			case 2:
				n := r.PopFront()
				if len(model) == 0 {
					if n != nil {
						return false
					}
				} else {
					if n != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				if len(model) == 0 {
					continue
				}
				k := rng.Intn(len(model))
				r.Remove(model[k])
				model = append(model[:k], model[k+1:]...)
			}
			if r.Len() != len(model) {
				return false
			}
		}
		k := 0
		ok := true
		r.Each(func(n *Node[int]) {
			ok = ok && k < len(model) && n == model[k]
			k++
		})
		return ok && k == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[int]()
	nodes := make([]*Node[int], 64)
	for i := range nodes {
		nodes[i] = NewNode(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			r.PushBack(n)
		}
		for range nodes {
			r.PopFront()
		}
	}
}
