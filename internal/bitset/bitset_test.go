package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // three words, last partial
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("Has(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 3 {
		t.Errorf("Remove(64) left Has=%v Count=%d", s.Has(64), s.Count())
	}
	if !s.Any() {
		t.Error("Any = false on non-empty set")
	}
	s.Clear()
	if s.Any() || s.Count() != 0 {
		t.Error("Clear left bits set")
	}
}

func TestBinaryOpsAgainstMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		am, bm := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Add(i)
				am[i] = true
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
				bm[i] = true
			}
		}
		check := func(name string, got Set, want func(i int) bool) {
			for i := 0; i < n; i++ {
				if got.Has(i) != want(i) {
					t.Fatalf("trial %d %s bit %d = %v, want %v", trial, name, i, got.Has(i), want(i))
				}
			}
		}
		dst := New(n)
		AndInto(dst, a, b)
		check("AndInto", dst, func(i int) bool { return am[i] && bm[i] })
		AndNotInto(dst, a, b)
		check("AndNotInto", dst, func(i int) bool { return am[i] && !bm[i] })
		OrInto(dst, a, b)
		check("OrInto", dst, func(i int) bool { return am[i] || bm[i] })
		OrInto(a, a, b) // aliasing form
		check("OrInto-alias", a, func(i int) bool { return am[i] || bm[i] })
	}
}

func TestForEachAscending(t *testing.T) {
	s := New(200)
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v (ascending)", got, want)
		}
	}
}

func TestClone(t *testing.T) {
	s := New(64)
	s.Add(5)
	c := s.Clone()
	c.Add(6)
	if s.Has(6) {
		t.Error("Clone shares storage with original")
	}
	if !c.Has(5) {
		t.Error("Clone dropped bits")
	}
}

func TestNewEdgeCases(t *testing.T) {
	if got := len(New(0)); got != 0 {
		t.Errorf("New(0) words = %d, want 0", got)
	}
	if got := len(New(-3)); got != 0 {
		t.Errorf("New(-3) words = %d, want 0", got)
	}
	if got := len(New(64)); got != 1 {
		t.Errorf("New(64) words = %d, want 1", got)
	}
	if got := len(New(65)); got != 2 {
		t.Errorf("New(65) words = %d, want 2", got)
	}
}
