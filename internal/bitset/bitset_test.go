package bitset

import "testing"

func TestBasicOps(t *testing.T) {
	s := New(130) // three words, last partial
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("Has(%d) = false after Add", i)
		}
	}
	s.Remove(64)
	if s.Has(64) || !s.Has(63) || !s.Has(129) {
		t.Errorf("Remove(64) left Has(64)=%v Has(63)=%v Has(129)=%v", s.Has(64), s.Has(63), s.Has(129))
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
