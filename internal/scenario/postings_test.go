package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

func postEID(n int) ids.EID { return ids.EID(fmt.Sprintf("p%02d", n)) }

func mustAdd(t *testing.T, st *Store, cell geo.CellID, w int, eids map[ids.EID]Attr) ID {
	t.Helper()
	id, err := st.Add(newEScenario(cell, w, eids), nil)
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

// checkPostings compares every window's postings with the brute-force scan
// of AtWindow, for each probe EID, over st's windows plus two it never saw.
func checkPostings(t *testing.T, label string, st *Store, probes []ids.EID) {
	t.Helper()
	for _, w := range append(st.Windows(), -77, 1<<20) {
		wp, _ := st.Postings(w)
		order := st.AtWindow(w)
		if !slices.Equal(wp.Order(), order) {
			t.Fatalf("%s: window %d Order = %v, AtWindow = %v", label, w, wp.Order(), order)
		}
		for _, e := range probes {
			var wantIDs []ID
			var wantRanks []int32
			for r, id := range order {
				if st.E(id).Inclusive(e) {
					wantIDs, wantRanks = append(wantIDs, id), append(wantRanks, int32(r))
				}
			}
			if gotIDs, gotRanks := wp.Held(st.Ordinal(e)); !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotRanks, wantRanks) {
				t.Fatalf("%s: window %d Held(%s) = %v at %v, want %v at %v", label, w, e, gotIDs, gotRanks, wantIDs, wantRanks)
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
		if wp, fresh := st.Postings(st.Windows()[0]); fresh || wp == nil {
			t.Fatalf("trial %d: a touched window materialised again", trial)
		}
	}
}

// TestPostingsHostile drives the shapes no generated world produces: an EID
// inclusive in three scenarios of one window (and vague in a fourth), two
// scenarios on one cell, empty scenarios, negative and huge cells and windows.
func TestPostingsHostile(t *testing.T) {
	st := NewStore(nil)
	inc, vag := AttrInclusive, AttrVague
	a := mustAdd(t, st, -1<<40, -3, map[ids.EID]Attr{"x": inc, "y": inc})
	b := mustAdd(t, st, 7, -3, map[ids.EID]Attr{"x": inc, "z": vag})
	mustAdd(t, st, 7, -3, map[ids.EID]Attr{"z": inc, "x": vag})
	c := mustAdd(t, st, 1<<40, -3, map[ids.EID]Attr{"x": inc})
	mustAdd(t, st, 0, -3, nil)
	mustAdd(t, st, -2, 1<<30, map[ids.EID]Attr{"y": vag})
	checkPostings(t, "hostile", st, []ids.EID{"x", "y", "z", "never"})
	wp, _ := st.Postings(-3)
	if got, _ := wp.Held(st.Ordinal("x")); !slices.Equal(got, []ID{a, b, c}) {
		t.Errorf("x is inclusive in %v of window -3, Held returned %v", []ID{a, b, c}, got)
	}
}

// TestPostingsInvalidation pins the ownership rules: Add interns its EIDs,
// builds no postings and drops exactly the window it grows; ordinals survive
// the growth; an ordinal interned after an older window's array was sized
// reads absent there.
func TestPostingsInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	st := randPostingStore(t, rng, 8, 10, 4, 40)
	if len(st.posts) != 0 {
		t.Fatal("Add built postings nobody asked for")
	}
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
		before[w], _ = st.Postings(w)
	}
	ord1 := st.Ordinal(postEID(1))

	late := postEID(90) // first seen by the store after every window was sized
	grown := mustAdd(t, st, 3, 2, map[ids.EID]Attr{late: AttrInclusive, postEID(1): AttrInclusive})
	for _, w := range st.Windows() {
		wp, fresh := st.Postings(w)
		if (w == 2) != fresh || (w == 2) == (wp == before[w]) {
			t.Errorf("window %d after an Add into window 2: rebuilt=%t, same postings=%t", w, fresh, wp == before[w])
		}
	}
	if got := st.Ordinal(postEID(1)); got != ord1 {
		t.Errorf("ordinal of %s moved from %d to %d across Add", postEID(1), ord1, got)
	}
	ordLate := st.Ordinal(late)
	if int(ordLate) < len(before[0].rank) {
		t.Fatalf("ordinal %d of the late EID does not lie past window 0's %d-entry array", ordLate, len(before[0].rank))
	}
	if got, _ := before[0].Held(ordLate); got != nil {
		t.Errorf("late ordinal reads %v in a window sized before it", got)
	}
	wp2, _ := st.Postings(2)
	if got, _ := wp2.Held(ordLate); !slices.Equal(got, []ID{grown}) {
		t.Errorf("window 2 holds the late EID in %v, want [%d]", got, grown)
	}
	checkPostings(t, "after growth", st, append(probes, late))
}

// TestPostingsConcurrentFirstTouch races readers to materialise one window —
// and each other's windows — while others resolve ordinals (run under -race);
// exactly one caller per window may report having built it.
func TestPostingsConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	st := randPostingStore(t, rng, 12, 10, 6, 120)
	wins := st.Windows()
	var wg sync.WaitGroup
	built := make([]int, 8)
	for g := range built {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range wins {
				w := wins[(i+g%2*3)%len(wins)] // half start on window 0 together, half elsewhere
				wp, fresh := st.Postings(w)
				if fresh {
					built[g]++
				}
				held, _ := wp.Held(st.Ordinal(postEID(g)))
				for _, id := range held {
					if !st.E(id).Inclusive(postEID(g)) {
						t.Errorf("goroutine %d window %d: scenario %d does not hold %s", g, w, id, postEID(g))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range built {
		total += n
	}
	if total != len(wins) {
		t.Errorf("%d first touches reported for %d windows", total, len(wins))
	}
	probes := make([]ids.EID, 12)
	for i := range probes {
		probes[i] = postEID(i)
	}
	checkPostings(t, "after the race", st, probes)
}

func TestPostingsReadsDoNotAllocate(t *testing.T) {
	st := NewStore(nil)
	mustAdd(t, st, 1, 0, map[ids.EID]Attr{"a": AttrInclusive})
	mustAdd(t, st, 2, 0, map[ids.EID]Attr{"a": AttrInclusive, "b": AttrInclusive}) // a is multi-held
	st.Postings(0)
	for _, e := range []ids.EID{"a", "b", "never"} {
		st.Ordinal(e)
		if allocs := testing.AllocsPerRun(100, func() {
			wp, _ := st.Postings(0)
			wp.Held(st.Ordinal(e))
		}); allocs != 0 {
			t.Errorf("a touched window allocates %.0f times per read of %q", allocs, e)
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
			if _, err := st.Add(newEScenario(geo.CellID(c), w, set), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

// BenchmarkPostingsFirstTouch times what a store pays for the ordinals a
// match reads: add is the Adds themselves, which intern every EID and write
// every view; windows is the one pass per window over those views that
// builds its inverted postings, paid at a store's first match. Each
// iteration adds the same scenarios, as records, into a new store, with the
// timer stopped unless the Adds are what is timed.
func BenchmarkPostingsFirstTouch(b *testing.B) {
	src := cityStore(b, 20_000, 2_500, 8)
	recs := make([]Record, src.Len())
	for id := range recs {
		recs[id] = src.Record(ID(id), nil)
	}
	fill := func(st *Store) {
		for i := range recs {
			if _, err := st.AddEIDs(recs[i].Cell, recs[i].Window, recs[i].EIDs, nil); err != nil {
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
	b.Run("windows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := NewStore(nil)
			fill(st)
			b.StartTimer()
			for _, w := range st.Windows() {
				st.Postings(w)
			}
		}
	})
}
