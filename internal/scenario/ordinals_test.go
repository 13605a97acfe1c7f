package scenario

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// checkViews holds every scenario's view to its EID map as E rebuilds it,
// and the ordinal table to its reverse: one ordinal per EID, strictly
// ascending, each naming the EID the store interned it for, beside that
// EID's attribute. (TestStoreContractProperty holds E to what was added.)
func checkViews(t *testing.T, label string, st *Store) {
	t.Helper()
	byOrd := make(map[int32]ids.EID, len(st.ords))
	for e, ord := range st.ords {
		byOrd[ord] = e
	}
	if len(byOrd) != len(st.eids) {
		t.Fatalf("%s: %d EIDs hold %d distinct ordinals, the reverse table %d", label, len(st.ords), len(byOrd), len(st.eids))
	}
	for ord, e := range st.eids {
		if byOrd[int32(ord)] != e {
			t.Fatalf("%s: the reverse table gives ordinal %d to %s, the table to %s", label, ord, e, byOrd[int32(ord)])
		}
	}
	for id := ID(0); int(id) < st.Len(); id++ {
		v := st.View(id)
		eids := st.E(id).EIDs
		if len(v.Ords) != len(eids) || len(v.Attrs) != len(eids) {
			t.Fatalf("%s: scenario %d view holds %d ordinals and %d attributes for %d EIDs", label, id, len(v.Ords), len(v.Attrs), len(eids))
		}
		for k, ord := range v.Ords {
			if k > 0 && v.Ords[k-1] >= ord {
				t.Fatalf("%s: scenario %d view ordinals %v are not strictly ascending", label, id, v.Ords)
			}
			e, ok := byOrd[ord]
			if !ok {
				t.Fatalf("%s: scenario %d view holds ordinal %d, which no EID has", label, id, ord)
			}
			if eids[e] != v.Attrs[k] {
				t.Fatalf("%s: scenario %d view gives %s (ordinal %d) attribute %v, the scenario %v", label, id, e, ord, v.Attrs[k], eids[e])
			}
		}
	}
}

func TestViewsMatchScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		checkViews(t, fmt.Sprintf("trial %d", trial), randPostingStore(t, rng, 12, 10, 5, 80))
	}
}

// TestViewsHostile covers the shapes no generated world produces: an EID
// inclusive twice in one window, EIDs only ever vague, an empty scenario.
func TestViewsHostile(t *testing.T) {
	st := NewStore(nil)
	inc, vag := AttrInclusive, AttrVague
	a := mustAdd(t, st, 1, 0, map[ids.EID]Attr{"x": inc, "y": vag})
	b := mustAdd(t, st, 2, 0, map[ids.EID]Attr{"x": inc, "v": vag})
	empty := mustAdd(t, st, 3, 0, nil)
	mustAdd(t, st, 1, 1, map[ids.EID]Attr{"v": vag, "w": vag})
	checkViews(t, "hostile", st)
	if v := st.View(empty); len(v.Ords) != 0 {
		t.Errorf("the empty scenario's view holds %v", v.Ords)
	}
	if len(st.View(a).Ords) != 2 || len(st.View(b).Ords) != 2 {
		t.Error("a vague-only EID is missing from a view")
	}
	if held := st.Postings(0).Held(st.Ordinal("v")); held != nil {
		t.Errorf("vague-only v is held inclusively by %v", held)
	}
}

// TestViewsSurviveGrowth reads every view and window, grows the store into a
// read window and a new one, and checks that the old views still read the
// same ordinals and the new scenarios' views are right.
func TestViewsSurviveGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	st := randPostingStore(t, rng, 10, 8, 4, 40)
	before := make([]EView, st.Len())
	for id := range before {
		before[id] = st.View(ID(id))
		st.Postings(st.Window(ID(id)))
	}
	mustAdd(t, st, 3, st.Windows()[0], map[ids.EID]Attr{postEID(1): AttrInclusive, postEID(77): AttrVague})
	mustAdd(t, st, 5, 99, map[ids.EID]Attr{postEID(78): AttrInclusive, postEID(2): AttrVague})
	for id, v := range before {
		if got := st.View(ID(id)); fmt.Sprint(got) != fmt.Sprint(v) {
			t.Fatalf("scenario %d's view moved across Add: %v, was %v", id, got, v)
		}
	}
	checkViews(t, "after growth", st)
}

// TestConcurrentFirstViews races view reads against posting reads and
// ordinal lookups (run under -race): each scenario's view was written once,
// by Add, and every reader reads the same one.
func TestConcurrentFirstViews(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	st := randPostingStore(t, rng, 12, 10, 6, 120)
	got := make([][]EView, 6)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]EView, st.Len())
			for i := 0; i < st.Len(); i++ {
				id := ID((i + g*17) % st.Len())
				got[g][id] = st.View(id)
				st.Postings(st.Window(id)).Held(st.Ordinal(postEID(g)))
			}
		}(g)
	}
	wg.Wait()
	for id := 0; id < st.Len(); id++ {
		for g := 1; g < len(got); g++ {
			if fmt.Sprint(got[g][id]) != fmt.Sprint(got[0][id]) {
				t.Fatalf("scenario %d: goroutine %d read view %v, goroutine 0 %v", id, g, got[g][id], got[0][id])
			}
		}
	}
	// One write per scenario leaves exactly its pairs in the slab.
	if built := len(st.viewOrds); built != pairsOf(st) {
		t.Errorf("the view slab holds %d pairs for %d scenario EIDs", built, pairsOf(st))
	}
	checkViews(t, "after the race", st)
}

func pairsOf(st *Store) int {
	n := 0
	for id := ID(0); int(id) < st.Len(); id++ {
		n += len(st.E(id).EIDs)
	}
	return n
}

// TestDetectionOrdinals pins the VID table: a scenario's ordinals are
// interned once and handed back as the same slice, equal VIDs share an
// ordinal across scenarios, an ordinal assigned ahead of any sighting is
// the one the sighting reads, and NumVIDs bounds them all.
func TestDetectionOrdinals(t *testing.T) {
	st := NewStore(nil)
	vs := []*VScenario{
		{Cell: 1, Detections: []Detection{{VID: "b"}, {VID: "a"}, {VID: "b"}}},
		{Cell: 2, Detections: []Detection{{VID: "c"}, {VID: "a"}}},
	}
	for _, v := range vs {
		if _, err := st.Add(v.Cell, 0, nil, v); err != nil {
			t.Fatal(err)
		}
	}
	ahead := st.VIDOrdinal("c")
	first := st.DetectionOrdinals(0, st.V(0))
	if first[0] != first[2] || first[0] == first[1] {
		t.Errorf("scenario 0's ordinals %v do not follow its VIDs b, a, b", first)
	}
	if again := st.DetectionOrdinals(0, st.V(0)); &again[0] != &first[0] {
		t.Error("a second call for scenario 0 interned it again")
	}
	second := st.DetectionOrdinals(1, st.V(1))
	if second[0] != ahead || second[1] != first[1] {
		t.Errorf("scenario 1's ordinals %v, want [%d %d]", second, ahead, first[1])
	}
	if st.NumVIDs() != 3 {
		t.Errorf("NumVIDs = %d for three VIDs", st.NumVIDs())
	}
}

// TestOrdinalTablesGrowOnlyOnFirstTouch: an EID's ordinal is interned by the
// Add that brings it, a VID's by the first extraction that reads it. Add
// interns each new EID once and no VID; views and postings intern nothing.
func TestOrdinalTablesGrowOnlyOnFirstTouch(t *testing.T) {
	st := NewStore(nil)
	v := &VScenario{Cell: 1, Detections: []Detection{{VID: "V1"}}}
	if _, err := st.Add(1, 0, []EIDAttr{{"a", AttrInclusive}, {"b", AttrVague}}, v); err != nil {
		t.Fatal(err)
	}
	if st.NumOrdinals() != 2 || st.NumVIDs() != 0 {
		t.Fatalf("after one Add: %d EID ordinals (want 2), %d VID ordinals (want 0)", st.NumOrdinals(), st.NumVIDs())
	}
	mustAdd(t, st, geo.CellID(2), 0, map[ids.EID]Attr{"b": AttrInclusive, "c": AttrInclusive})
	if st.NumOrdinals() != 3 {
		t.Fatalf("an Add meeting one new EID left %d ordinals, want 3", st.NumOrdinals())
	}
	st.View(0)
	st.View(1)
	st.Postings(0)
	if st.NumOrdinals() != 3 || len(st.viewOrds) != 4 {
		t.Errorf("reads grew the tables: %d ordinals (want 3), %d view pairs (want 4)", st.NumOrdinals(), len(st.viewOrds))
	}
	st.DetectionOrdinals(0, st.V(0))
	if st.NumVIDs() != 1 {
		t.Errorf("the first extraction interned %d VIDs, want 1", st.NumVIDs())
	}
}
