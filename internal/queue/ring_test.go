package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// push makes a record holding v and links it at the back of ring h.
func push(a *Arena[int], h Index, v int) Index {
	i := a.New()
	*a.At(i) = v
	a.PushBack(h, i)
	return i
}

// popFront unlinks and returns the front record of ring h, or 0.
func popFront(a *Arena[int], h Index) Index {
	i := a.Front(h)
	if i != 0 {
		a.Remove(i)
	}
	return i
}

// linked reports whether record i is in a ring.
func linked(a *Arena[int], i Index) bool { return a.recs[i].prev != 0 }

// values returns ring h's values, front to back.
func values(a *Arena[int], h Index) []int {
	var got []int
	a.Each(h, func(i Index) { got = append(got, *a.At(i)) })
	return got
}

func TestRingPushPop(t *testing.T) {
	var a Arena[int]
	h := a.NewRing()
	if a.Front(h) != 0 {
		t.Fatal("new ring not empty")
	}
	for i := 0; i <= 3; i++ {
		push(&a, h, i)
	}
	for want := 0; want <= 3; want++ {
		i := popFront(&a, h)
		if i == 0 || *a.At(i) != want {
			t.Fatalf("popFront = %d, want the record holding %d", i, want)
		}
		if linked(&a, i) {
			t.Fatal("popped record still linked")
		}
	}
	if popFront(&a, h) != 0 {
		t.Fatal("popFront on empty ring returned a record")
	}
}

func TestRingRemoveMiddle(t *testing.T) {
	var a Arena[int]
	h := a.NewRing()
	var recs []Index
	for i := 0; i < 5; i++ {
		recs = append(recs, push(&a, h, i))
	}
	a.Remove(recs[2])
	if got := values(&a, h); len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("after remove: %v, want [0 1 3 4]", got)
	}
}

func TestRingDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double insert")
		}
	}()
	var a Arena[int]
	h := a.NewRing()
	a.PushBack(h, push(&a, h, 1))
}

// TestRingRemoveDetachedPanics: removing a record that is in no ring —
// never linked, or already removed — panics, as freeing a linked one does.
func TestRingRemoveDetachedPanics(t *testing.T) {
	var a Arena[int]
	h := a.NewRing()
	i := push(&a, h, 1)
	a.Remove(i)
	for name, f := range map[string]func(){
		"remove of a removed record": func() { a.Remove(i) },
		"remove of a fresh record":   func() { a.Remove(a.New()) },
		"free of a linked record":    func() { a.Free(push(&a, h, 2)) },
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

// TestRingDrainInto: splicing drains one ring into the back of another in
// order, leaving the source empty and usable.
func TestRingDrainInto(t *testing.T) {
	var a Arena[int]
	src, dst := a.NewRing(), a.NewRing()
	push(&a, dst, 0)
	for i := 1; i <= 3; i++ {
		push(&a, src, i)
	}
	a.Splice(src, dst)
	a.Splice(src, dst) // an empty source is a no-op
	if a.Front(src) != 0 {
		t.Fatal("source not empty after splice")
	}
	push(&a, src, 5)
	a.Splice(src, dst)
	if got := values(&a, dst); len(got) != 5 || got[0] != 0 || got[3] != 3 || got[4] != 5 {
		t.Fatalf("order after splices %v, want [0 1 2 3 5]", got)
	}
	for want := 0; want <= 3; want++ {
		if i := popFront(&a, dst); *a.At(i) != want {
			t.Fatalf("order broken at %d: %d", want, *a.At(i))
		}
	}
}

func TestRingZeroValue(t *testing.T) {
	var a Arena[int]
	h := a.NewRing()
	push(&a, h, 7)
	if i := popFront(&a, h); i == 0 || *a.At(i) != 7 {
		t.Fatal("zero-value arena unusable")
	}
}

// TestArenaRecycles: a freed record comes back zeroed from the next New,
// newest first, so a steady state of equal frees and news never grows the
// arena; every Index stays valid across growth.
func TestArenaRecycles(t *testing.T) {
	var a Arena[int]
	var recs []Index
	for v := 1; v <= 100; v++ {
		i := a.New()
		*a.At(i) = v
		recs = append(recs, i)
	}
	for k, i := range recs {
		if *a.At(i) != k+1 {
			t.Fatalf("record %d holds %d after growth, want %d", i, *a.At(i), k+1)
		}
	}
	n := a.Len()
	a.Free(recs[3])
	a.Free(recs[7])
	if i := a.New(); i != recs[7] || *a.At(i) != 0 {
		t.Fatalf("New = %d holding %d, want the last freed record %d, zeroed", i, *a.At(i), recs[7])
	}
	if i := a.New(); i != recs[3] {
		t.Fatalf("New = %d, want %d", i, recs[3])
	}
	if a.Len() != n {
		t.Fatalf("arena grew from %d to %d records recycling two", n, a.Len())
	}
}

// TestRingQuickAgainstSlice models a ring with a plain slice under random
// push-back/pop-front/remove-anywhere/free sequences, with records
// recycled through the arena's free list.
func TestRingQuickAgainstSlice(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var a Arena[int]
		h := a.NewRing()
		var model []Index
		for v, op := range ops {
			switch op % 3 {
			case 0:
				model = append(model, push(&a, h, v))
			case 1:
				i := popFront(&a, h)
				if len(model) == 0 {
					if i != 0 {
						return false
					}
					continue
				}
				if i != model[0] {
					return false
				}
				model = model[1:]
				a.Free(i)
			case 2:
				if len(model) == 0 {
					continue
				}
				k := rng.Intn(len(model))
				a.Remove(model[k])
				model = append(model[:k], model[k+1:]...)
			}
		}
		k := 0
		ok := true
		a.Each(h, func(i Index) {
			ok = ok && k < len(model) && i == model[k]
			k++
		})
		return ok && k == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	var a Arena[int]
	h := a.NewRing()
	recs := make([]Index, 64)
	for i := range recs {
		recs[i] = a.New()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			a.PushBack(h, r)
		}
		for range recs {
			popFront(&a, h)
		}
	}
}
