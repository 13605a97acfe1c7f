package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// eidList is set as a record lists it, in ascending EID order.
func eidList(set map[ids.EID]Attr) []EIDAttr {
	list := make([]EIDAttr, 0, len(set))
	for _, e := range ids.SortedEIDKeys(set) {
		list = append(list, EIDAttr{EID: e, Attr: set[e]})
	}
	return list
}

func TestEScenarioAccessors(t *testing.T) {
	s := &EScenario{Cell: 3, Window: 7, EIDs: map[ids.EID]Attr{"bb": AttrInclusive, "aa": AttrVague}}
	if sorted := s.SortedEIDs(); len(sorted) != 2 || sorted[0] != "aa" || sorted[1] != "bb" {
		t.Errorf("SortedEIDs = %v", sorted)
	}
}

func TestAttrString(t *testing.T) {
	for a, want := range map[Attr]string{
		AttrInclusive: "inclusive",
		AttrVague:     "vague",
		Attr(0):       "invalid",
	} {
		if got := a.String(); got != want {
			t.Errorf("Attr(%d).String() = %q, want %q", a, got, want)
		}
	}
}

func TestVScenarioVIDs(t *testing.T) {
	v := &VScenario{
		Cell:   1,
		Window: 2,
		Detections: []Detection{
			{VID: "V2"},
			{VID: "V1"},
			{VID: "V2"}, // duplicate label, second sighting
		},
	}
	got := v.VIDs()
	if len(got) != 2 || got[0] != "V1" || got[1] != "V2" {
		t.Errorf("VIDs = %v", got)
	}
	if !v.HasVID("V1") || v.HasVID("V9") {
		t.Error("HasVID wrong")
	}
}

func testLayout(t *testing.T) geo.Layout {
	t.Helper()
	l, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestStoreAddAndLookup(t *testing.T) {
	st := NewStore(testLayout(t))
	v := &VScenario{Cell: 2, Window: 5, Detections: []Detection{{VID: "V1"}}}
	id, err := st.Add(2, 5, []EIDAttr{{"aa", AttrInclusive}}, v)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != id {
		t.Error("Add did not assign the V side its ID")
	}
	e := &EScenario{ID: id, Cell: 2, Window: 5, EIDs: map[ids.EID]Attr{"aa": AttrInclusive}}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
	// E builds a fresh copy each call: equal to what was added, owned by
	// the caller, so writing through it changes nothing stored.
	got := st.E(id)
	if got == e || !reflect.DeepEqual(got, e) || st.V(id) != v {
		t.Errorf("lookup returned %+v, want a fresh copy of %+v", got, e)
	}
	got.EIDs["aa"], got.EIDs["zz"] = AttrVague, AttrInclusive
	if again := st.E(id); again == got || !reflect.DeepEqual(again, e) {
		t.Errorf("writing through E's copy changed the store: %+v", again)
	}
	if st.E(99) != nil || st.V(-1) != nil {
		t.Error("out-of-range lookup should return nil")
	}
}

func TestStoreAddValidation(t *testing.T) {
	st := NewStore(testLayout(t))
	v := &VScenario{Cell: 2, Window: 1}
	if _, err := st.Add(1, 1, nil, v); err == nil {
		t.Error("want error for mismatched EV pair")
	}
}

func TestStoreNilVScenario(t *testing.T) {
	st := NewStore(testLayout(t))
	id, err := st.Add(0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.V(id) != nil {
		t.Error("want nil V-Scenario")
	}
}

func TestStoreWindows(t *testing.T) {
	st := NewStore(testLayout(t))
	for _, w := range []int{5, 1, 3, 1} {
		if _, err := st.Add(geo.CellID(w), w, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	ws := st.Windows()
	if len(ws) != 3 || ws[0] != 1 || ws[1] != 3 || ws[2] != 5 {
		t.Errorf("Windows = %v", ws)
	}
	if got := st.AtWindow(1); len(got) != 2 {
		t.Errorf("AtWindow(1) = %v", got)
	}
	if got := st.AtWindow(42); len(got) != 0 {
		t.Errorf("AtWindow(42) = %v, want empty", got)
	}
}

func TestStoreAtWindowSortedByCell(t *testing.T) {
	st := NewStore(testLayout(t))
	for _, c := range []geo.CellID{9, 2, 5} {
		if _, err := st.Add(c, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := st.AtWindow(0)
	cells := []geo.CellID{st.E(got[0]).Cell, st.E(got[1]).Cell, st.E(got[2]).Cell}
	if cells[0] != 2 || cells[1] != 5 || cells[2] != 9 {
		t.Errorf("AtWindow cells = %v, want ascending", cells)
	}
}

func TestStoreShuffledWindowsIsPermutation(t *testing.T) {
	st := NewStore(testLayout(t))
	for w := 0; w < 20; w++ {
		if _, err := st.Add(0, w, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := st.ShuffledWindows(rand.New(rand.NewSource(4)))
	if len(got) != 20 {
		t.Fatalf("len = %d", len(got))
	}
	seen := make(map[int]bool)
	for _, w := range got {
		if seen[w] {
			t.Fatalf("window %d repeated", w)
		}
		seen[w] = true
	}
}
