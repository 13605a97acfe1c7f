package blocking

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// eid makes the n-th test EID.
func eid(n int) ids.EID { return ids.EID(fmt.Sprintf("e%02d", n)) }

// randStore builds a seeded random store: EIDs wander over cells, a few
// windows, mixed inclusive/vague attrs, occasional empty and duplicate-shape
// scenarios.
func randStore(t *testing.T, rng *rand.Rand, numEIDs, numCells, numWindows, numScen int) *scenario.Store {
	t.Helper()
	st := scenario.NewStore(nil)
	for i := 0; i < numScen; i++ {
		eids := make(map[ids.EID]scenario.Attr)
		for n := rng.Intn(4); n > 0; n-- {
			attr := scenario.AttrInclusive
			if rng.Intn(3) == 0 {
				attr = scenario.AttrVague
			}
			eids[eid(rng.Intn(numEIDs))] = attr
		}
		if _, err := st.Add(&scenario.EScenario{Cell: geo.CellID(rng.Intn(numCells)), Window: rng.Intn(numWindows), EIDs: eids}, nil); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return st
}

// TestGeometryDefaults pins what is left of Geometry: one value, and an index
// built with it over no store or an empty one answers every query with
// nothing.
func TestGeometryDefaults(t *testing.T) {
	if DefaultGeometry() != (Geometry{}) {
		t.Error("DefaultGeometry is not the zero Geometry")
	}
	for _, st := range []*scenario.Store{nil, scenario.NewStore(nil)} {
		if got := Build(st, DefaultGeometry()).InclusiveAt(eid(1), 0); got != nil {
			t.Errorf("InclusiveAt over an empty index = %v", got)
		}
	}
}

// TestInclusiveAt checks the postings against a direct store scan, and that a
// hit hands out store storage rather than a fresh slice.
func TestInclusiveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := randStore(t, rng, 8, 20, 5, 60)
	ix := Build(st, DefaultGeometry())
	var hit ids.EID
	for n := 0; n < 10; n++ {
		e := eid(n)
		for w := -1; w < 7; w++ {
			var want []scenario.ID
			for _, id := range st.AtWindow(w) {
				if st.E(id).Inclusive(e) {
					want = append(want, id)
				}
			}
			got := ix.InclusiveAt(e, w)
			if !slices.Equal(got, want) {
				t.Fatalf("InclusiveAt(%s,%d) = %v, want %v", e, w, got, want)
			}
			if w == 0 && len(got) > 0 {
				hit = e
			}
		}
	}
	if hit == ids.None {
		t.Fatal("no EID is inclusive in window 0; the allocation check has nothing to probe")
	}
	if allocs := testing.AllocsPerRun(100, func() { ix.InclusiveAt(hit, 0) }); allocs != 0 {
		t.Errorf("InclusiveAt allocates %.0f times per hit", allocs)
	}
}
