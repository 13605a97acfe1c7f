package scenario

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

func postEID(n int) ids.EID { return ids.EID(fmt.Sprintf("p%02d", n)) }

func mustAdd(t *testing.T, st *Store, cell geo.CellID, w int, eids map[ids.EID]Attr) ID {
	t.Helper()
	id, err := st.Add(cell, w, eidList(eids), nil)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	return id
}

// randPostingStore builds a seeded store of numScen scenarios: a few EIDs
// each, mixed inclusive/vague, cells colliding often enough that an EID is
// now and then inclusive twice in one window.
func randPostingStore(t *testing.T, rng *rand.Rand, numEIDs, numCells, numWindows, numScen int) *Store {
	t.Helper()
	st := NewStore(nil)
	for i := 0; i < numScen; i++ {
		eids := make(map[ids.EID]Attr)
		for n := rng.Intn(4); n > 0; n-- {
			attr := AttrInclusive
			if rng.Intn(3) == 0 {
				attr = AttrVague
			}
			eids[postEID(rng.Intn(numEIDs))] = attr
		}
		mustAdd(t, st, geo.CellID(rng.Intn(numCells)), rng.Intn(numWindows), eids)
	}
	return st
}

// byCellID is AtWindow's order: by cell, ties by ID.
func byCellID(st *Store) func(a, b ID) int {
	return func(a, b ID) int { return cmp.Or(cmp.Compare(st.Cell(a), st.Cell(b)), cmp.Compare(a, b)) }
}

// checkPostings holds every window's AtWindow list to (cell, ID) order over
// exactly the window's scenarios, and its postings to the brute-force scan of
// that list, for each probe EID, over st's windows plus two it never saw.
func checkPostings(t *testing.T, label string, st *Store, probes []ids.EID) {
	t.Helper()
	for _, w := range append(st.Windows(), -77, 1<<20) {
		var inWin []ID
		for id := ID(0); int(id) < st.Len(); id++ {
			if st.Window(id) == w {
				inWin = append(inWin, id)
			}
		}
		order := st.AtWindow(w)
		slices.SortFunc(inWin, byCellID(st))
		if !slices.Equal(order, inWin) {
			t.Fatalf("%s: window %d AtWindow = %v, want %v in (cell, ID) order", label, w, order, inWin)
		}
		for _, e := range probes {
			var want []ID
			for _, id := range order {
				if st.E(id).EIDs[e] == AttrInclusive {
					want = append(want, id)
				}
			}
			if got := st.Postings(w).Held(st.Ordinal(e)); !slices.Equal(got, want) {
				t.Fatalf("%s: window %d Held(%s) = %v, want %v", label, w, e, got, want)
			}
		}
	}
}

func TestPostingsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probes := make([]ids.EID, 14) // postEID(12), postEID(13) are never observed
	for i := range probes {
		probes[i] = postEID(i)
	}
	for trial := 0; trial < 30; trial++ {
		st := randPostingStore(t, rng, 12, 10, 5, 80)
		checkPostings(t, fmt.Sprintf("trial %d", trial), st, probes)
	}
}

// TestPostingsHostile drives the shapes no generated world produces: an EID
// inclusive in five scenarios of one window (and vague in a sixth), three
// scenarios on one cell, Adds out of cell order, empty scenarios, negative
// and huge cells and windows.
func TestPostingsHostile(t *testing.T) {
	st := NewStore(nil)
	inc, vag := AttrInclusive, AttrVague
	a := mustAdd(t, st, -1<<40, -3, map[ids.EID]Attr{"x": inc, "y": inc})
	b := mustAdd(t, st, 7, -3, map[ids.EID]Attr{"x": inc, "z": vag})
	b2 := mustAdd(t, st, 7, -3, map[ids.EID]Attr{"z": inc, "x": vag})
	c := mustAdd(t, st, 1<<40, -3, map[ids.EID]Attr{"x": inc})
	e := mustAdd(t, st, 0, -3, nil)
	d := mustAdd(t, st, 3, -3, map[ids.EID]Attr{"x": inc, "z": inc}) // lands inside x's list
	b3 := mustAdd(t, st, 7, -3, map[ids.EID]Attr{"x": inc})          // the third on cell 7
	mustAdd(t, st, -2, 1<<30, map[ids.EID]Attr{"y": vag})
	checkPostings(t, "hostile", st, []ids.EID{"x", "y", "z", "never"})
	if got, want := st.AtWindow(-3), []ID{a, e, d, b, b2, b3, c}; !slices.Equal(got, want) {
		t.Errorf("AtWindow(-3) = %v, want %v", got, want)
	}
	if got, want := st.Postings(-3).Held(st.Ordinal("x")), []ID{a, d, b, b3, c}; !slices.Equal(got, want) {
		t.Errorf("x is inclusive in %v of window -3, Held returned %v", want, got)
	}
}

// TestPostingsInvalidation pins that there is none: Add interns its EIDs
// and writes the postings of exactly the window it grows, in place; every
// other window's postings stay the ones a reader holds; ordinals survive the
// growth; an ordinal interned after an older window's array was sized reads
// absent there.
func TestPostingsInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	st := randPostingStore(t, rng, 8, 10, 4, 40)
	for id := ID(0); int(id) < st.Len(); id++ {
		for e := range st.E(id).EIDs {
			if _, ok := st.ords[e]; !ok {
				t.Fatalf("scenario %d holds %s, which Add did not intern", id, e)
			}
		}
	}
	probes := []ids.EID{postEID(0), postEID(1), postEID(2), postEID(3), postEID(4), postEID(5), postEID(6), postEID(7)}
	checkPostings(t, "before growth", st, probes)
	before := make(map[int]*WindowPostings)
	for _, w := range st.Windows() {
		before[w] = st.Postings(w)
	}
	ord1 := st.Ordinal(postEID(1))

	late := postEID(90) // first seen by the store after every window was sized
	grown := mustAdd(t, st, 3, 2, map[ids.EID]Attr{late: AttrInclusive, postEID(1): AttrInclusive})
	for _, w := range st.Windows() {
		if st.Postings(w) != before[w] {
			t.Errorf("window %d's postings were replaced by an Add into window 2", w)
		}
	}
	if got := st.Ordinal(postEID(1)); got != ord1 {
		t.Errorf("ordinal of %s moved from %d to %d across Add", postEID(1), ord1, got)
	}
	ordLate := st.Ordinal(late)
	if int(ordLate) < len(before[0].rank) {
		t.Fatalf("ordinal %d of the late EID does not lie past window 0's %d-entry array", ordLate, len(before[0].rank))
	}
	if got := before[0].Held(ordLate); got != nil {
		t.Errorf("late ordinal reads %v in a window sized before it", got)
	}
	if got := st.Postings(2).Held(ordLate); !slices.Equal(got, []ID{grown}) {
		t.Errorf("window 2 holds the late EID in %v, want [%d]", got, grown)
	}
	checkPostings(t, "after growth", st, append(probes, late))
}

func TestPostingsReadsDoNotAllocate(t *testing.T) {
	st := NewStore(nil)
	mustAdd(t, st, 1, 0, map[ids.EID]Attr{"a": AttrInclusive})
	mustAdd(t, st, 2, 0, map[ids.EID]Attr{"a": AttrInclusive, "b": AttrInclusive}) // a is multi-held
	for _, e := range []ids.EID{"a", "b", "never"} {
		st.Ordinal(e)
		for _, w := range []int{0, 5} { // 5 was never added to
			if allocs := testing.AllocsPerRun(100, func() { st.Postings(w).Held(st.Ordinal(e)) }); allocs != 0 {
				t.Errorf("window %d allocates %.0f times per read of %q", w, allocs, e)
			}
		}
	}
}

// cityStore builds a sparse-city-shaped store: numEIDs EIDs over numCells
// cells and numWindows windows, each EID inclusive in one cell per window and
// vague in the next cell one time in four, as a border walker is.
func cityStore(b *testing.B, numEIDs, numCells, numWindows int) *Store {
	rng := rand.New(rand.NewSource(3))
	eids := make([]ids.EID, numEIDs)
	for i := range eids {
		eids[i] = ids.EID(fmt.Sprintf("e%06d", i))
	}
	st := NewStore(nil)
	for w := 0; w < numWindows; w++ {
		cells := make([]map[ids.EID]Attr, numCells)
		for i := range cells {
			cells[i] = make(map[ids.EID]Attr)
		}
		for _, e := range eids {
			c := rng.Intn(numCells)
			cells[c][e] = AttrInclusive
			if rng.Intn(4) == 0 {
				if n := cells[(c+1)%numCells]; n[e] == 0 {
					n[e] = AttrVague
				}
			}
		}
		for c, set := range cells {
			if _, err := st.Add(geo.CellID(c), w, eidList(set), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

// BenchmarkPostingsFirstTouch times what a store pays for the ordinals a
// match reads: the Adds, which intern every EID and write every view and
// every window's postings. Each iteration adds the same scenarios, as
// records, into a new store.
func BenchmarkPostingsFirstTouch(b *testing.B) {
	src := cityStore(b, 20_000, 2_500, 8)
	recs := make([]Record, src.Len())
	for id := range recs {
		recs[id] = src.Record(ID(id), nil)
	}
	fill := func(st *Store) {
		for i := range recs {
			if _, err := st.Add(recs[i].Cell, recs[i].Window, recs[i].EIDs, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill(NewStore(nil))
		}
	})
}
