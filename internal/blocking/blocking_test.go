package blocking

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// eid makes the n-th test EID.
func eid(n int) ids.EID { return ids.EID(fmt.Sprintf("e%02d", n)) }

// addScenario registers one E-Scenario with the given (cell, window) and
// EID→attr set. Helpers panic on store errors: test stores are well-formed.
func addScenario(t *testing.T, st *scenario.Store, cell geo.CellID, w int, eids map[ids.EID]scenario.Attr) scenario.ID {
	t.Helper()
	id, err := st.Add(&scenario.EScenario{Cell: cell, Window: w, EIDs: eids}, nil)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	return id
}

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
		addScenario(t, st, geo.CellID(rng.Intn(numCells)), rng.Intn(numWindows), eids)
	}
	return st
}

// wantInclusiveAt is the brute-force posting: the scenarios of w holding e
// inclusively, in AtWindow order.
func wantInclusiveAt(st *scenario.Store, e ids.EID, w int) []scenario.ID {
	var want []scenario.ID
	for _, id := range st.AtWindow(w) {
		if st.E(id).Inclusive(e) {
			want = append(want, id)
		}
	}
	return want
}

// wantCandidates is the brute-force candidate list: the scenarios of w
// holding any live target of lt inclusively, in AtWindow order.
func wantCandidates(st *scenario.Store, lt *LiveTargets, w int) []scenario.ID {
	var want []scenario.ID
	for _, id := range st.AtWindow(w) {
		for e, a := range st.E(id).EIDs {
			if _, live := lt.live[e]; live && a == scenario.AttrInclusive {
				want = append(want, id)
				break
			}
		}
	}
	return want
}

// checkIndex compares every InclusiveAt and Candidates answer of ix with the
// brute-force AtWindow scan of st, over st's windows plus two it never saw.
func checkIndex(t *testing.T, label string, st *scenario.Store, ix *Index, probes, targets []ids.EID) {
	t.Helper()
	lt := NewLiveTargets(targets)
	for _, w := range append(st.Windows(), -77, 1<<20) {
		if got, want := ix.WindowTotal(w), len(st.AtWindow(w)); got != want {
			t.Fatalf("%s: WindowTotal(%d) = %d, want %d", label, w, got, want)
		}
		for _, e := range probes {
			if got, want := ix.InclusiveAt(e, w), wantInclusiveAt(st, e, w); !slices.Equal(got, want) {
				t.Fatalf("%s: InclusiveAt(%s,%d) = %v, want %v", label, e, w, got, want)
			}
		}
		prefix := []scenario.ID{-5}
		got, total := ix.Candidates(w, lt, prefix)
		if total != len(st.AtWindow(w)) {
			t.Fatalf("%s: Candidates(%d) total = %d, want %d", label, w, total, len(st.AtWindow(w)))
		}
		if got[0] != -5 {
			t.Fatalf("%s: Candidates(%d) overwrote the caller's buffer prefix", label, w)
		}
		if want := wantCandidates(st, lt, w); !slices.Equal(got[1:], want) {
			t.Fatalf("%s: Candidates(%d) = %v, want %v", label, w, got[1:], want)
		}
	}
}

// TestGeometryDefaults pins what is left of Geometry: one value, and an index
// built with it over no store or an empty one answers every query with
// nothing.
func TestGeometryDefaults(t *testing.T) {
	if DefaultGeometry() != (Geometry{}) {
		t.Error("DefaultGeometry is not the zero Geometry")
	}
	for _, st := range []*scenario.Store{nil, scenario.NewStore(nil)} {
		ix := Build(st, DefaultGeometry())
		if got := ix.InclusiveAt(eid(1), 0); got != nil {
			t.Errorf("InclusiveAt over an empty index = %v", got)
		}
		lt := NewLiveTargets([]ids.EID{eid(1), eid(2)})
		if cands, total := ix.Candidates(0, lt, nil); len(cands) != 0 || total != 0 {
			t.Errorf("Candidates over an empty index = %v, total %d", cands, total)
		}
		if ix.WindowTotal(3) != 0 {
			t.Error("WindowTotal over an empty index is not 0")
		}
	}
}

// TestCandidatesSound checks the index against brute force over randomized
// stores: a window's candidates are exactly the scenarios holding a live
// target inclusively, in AtWindow order, and stay so as targets resolve.
func TestCandidatesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probes := make([]ids.EID, 14) // eid(12), eid(13) are never observed
	for i := range probes {
		probes[i] = eid(i)
	}
	for trial := 0; trial < 30; trial++ {
		st := randStore(t, rng, 12, 40, 6, 80)
		ix := Build(st, DefaultGeometry())
		var targets []ids.EID
		for n := 2 + rng.Intn(24); n > 0; n-- { // few to all of the EIDs: both sides of the walk
			targets = append(targets, eid(rng.Intn(14)))
		}
		targets = append(targets, targets[0]) // duplicate target must be harmless
		checkIndex(t, fmt.Sprintf("trial %d", trial), st, ix, probes, targets)

		lt := NewLiveTargets(targets)
		lt.Resolve(targets[0])
		for _, w := range st.Windows() {
			got, _ := ix.Candidates(w, lt, nil)
			if want := wantCandidates(st, lt, w); !slices.Equal(got, want) {
				t.Fatalf("trial %d window %d after a resolve: candidates %v, want %v", trial, w, got, want)
			}
		}
	}
}

// TestCandidatesEmptyLive pins the degenerate trackers: an unknown window
// contributes nothing, and an empty, singleton-born or nil tracker prunes the
// whole window while still reporting the full total for accounting.
func TestCandidatesEmptyLive(t *testing.T) {
	st := scenario.NewStore(nil)
	addScenario(t, st, 1, 0, map[ids.EID]scenario.Attr{eid(1): scenario.AttrInclusive})
	addScenario(t, st, 2, 0, map[ids.EID]scenario.Attr{eid(2): scenario.AttrInclusive})
	ix := Build(st, DefaultGeometry())
	both := NewLiveTargets([]ids.EID{eid(1), eid(2)})
	if cands, total := ix.Candidates(99, both, nil); len(cands) != 0 || total != 0 {
		t.Errorf("unknown window: got %d candidates, total %d", len(cands), total)
	}
	for name, lt := range map[string]*LiveTargets{
		"no targets": NewLiveTargets(nil),
		"singleton":  NewLiveTargets([]ids.EID{eid(1)}),
		"nil":        nil,
	} {
		if cands, total := ix.Candidates(0, lt, nil); len(cands) != 0 || total != 2 {
			t.Errorf("%s: got %d candidates, total %d; want 0 and 2", name, len(cands), total)
		}
	}
	if cands, _ := ix.Candidates(0, both, nil); len(cands) != 2 {
		t.Errorf("two live targets in two scenarios: got %d candidates", len(cands))
	}
}

// TestInclusiveAt checks the postings against a direct store scan, and that a
// hit hands out index storage rather than a fresh slice.
func TestInclusiveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := randStore(t, rng, 8, 20, 5, 60)
	ix := Build(st, DefaultGeometry())
	var hit ids.EID
	for n := 0; n < 10; n++ {
		e := eid(n)
		for w := -1; w < 7; w++ {
			got, want := ix.InclusiveAt(e, w), wantInclusiveAt(st, e, w)
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

// TestHostileStores drives the shapes no generated world produces: negative
// and huge cells and windows, two scenarios on one cell, an EID inclusive in
// several scenarios of one window (and vague in another), empty scenarios.
func TestHostileStores(t *testing.T) {
	st := scenario.NewStore(nil)
	inc, vag := scenario.AttrInclusive, scenario.AttrVague
	addScenario(t, st, -1<<40, -3, map[ids.EID]scenario.Attr{eid(1): inc, eid(2): inc})
	addScenario(t, st, 7, -3, map[ids.EID]scenario.Attr{eid(1): inc, eid(3): vag})
	addScenario(t, st, 7, -3, map[ids.EID]scenario.Attr{eid(3): inc})     // second scenario on cell 7
	addScenario(t, st, 1<<40, -3, map[ids.EID]scenario.Attr{eid(1): inc}) // eid(1) a third time
	addScenario(t, st, 0, -3, nil)                                        // empty
	addScenario(t, st, -2, 1<<30, map[ids.EID]scenario.Attr{eid(2): vag}) // vague only
	addScenario(t, st, 5, 0, map[ids.EID]scenario.Attr{eid(4): inc, eid(1): vag})
	addScenario(t, st, 5, 0, map[ids.EID]scenario.Attr{eid(4): inc, eid(2): inc}) // eid(4) twice on one cell
	probes := []ids.EID{eid(1), eid(2), eid(3), eid(4), eid(99)}
	ix := Build(st, DefaultGeometry())
	for _, targets := range [][]ids.EID{
		{eid(1), eid(2)}, {eid(3), eid(4)}, {eid(1), eid(2), eid(3), eid(4)}, {eid(2), eid(99)}, {eid(98), eid(99)},
	} {
		checkIndex(t, fmt.Sprint(targets), st, ix, probes, targets)
	}
	if got := ix.InclusiveAt(eid(1), -3); len(got) != 3 {
		t.Errorf("eid(1) is inclusive in 3 scenarios of window -3, InclusiveAt returned %v", got)
	}
}

// TestStoreGrowsAfterFirstTouch drives one and the same Index across
// Store.Add: the postings live in the store, which drops exactly the window an
// Add grows, so a view held from before the growth answers for the grown
// store — including for an EID whose ordinal was interned after the untouched
// older windows' arrays were sized, and for a live tracker whose ordinals were
// resolved before the growth.
func TestStoreGrowsAfterFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	st := randStore(t, rng, 8, 20, 4, 40)
	probes := []ids.EID{eid(0), eid(1), eid(2), eid(3), eid(4), eid(5), eid(6), eid(7), eid(50)}
	targets := []ids.EID{eid(0), eid(1), eid(2), eid(3), eid(50)}
	ix := Build(st, DefaultGeometry())
	lt := NewLiveTargets(targets)
	checkIndex(t, "before growth", st, ix, probes, targets)
	for _, w := range st.Windows() {
		ix.Candidates(w, lt, nil) // resolves lt's ordinals against the small store
	}
	touched := ix.Materialised()
	if want := int64(len(st.Windows())); touched != want {
		t.Fatalf("Materialised = %d after touching %d windows", touched, want)
	}

	// eid(51) enters the store only now: its ordinal lies past the end of
	// every array sized before, window 2's included until it re-materialises.
	grown := addScenario(t, st, 3, 2, map[ids.EID]scenario.Attr{eid(51): scenario.AttrInclusive, eid(1): scenario.AttrInclusive})
	addScenario(t, st, 4, 9, map[ids.EID]scenario.Attr{eid(2): scenario.AttrInclusive, eid(51): scenario.AttrVague}) // a new window
	if got := ix.InclusiveAt(eid(51), 2); !slices.Contains(got, grown) {
		t.Errorf("InclusiveAt(eid(51), 2) = %v through a view older than scenario %d", got, grown)
	}
	if got := ix.InclusiveAt(eid(51), 0); got != nil {
		t.Errorf("InclusiveAt(eid(51), 0) = %v: an ordinal past an older window's array must read absent", got)
	}
	checkIndex(t, "same view after growth", st, ix, append(probes, eid(51)), append(targets, eid(51)))
	for _, w := range st.Windows() {
		got, _ := ix.Candidates(w, lt, nil)
		if want := wantCandidates(st, lt, w); !slices.Equal(got, want) {
			t.Errorf("window %d, tracker resolved before growth: candidates %v, want %v", w, got, want)
		}
	}
	if got := ix.Materialised() - touched; got != 2 {
		t.Errorf("growth into window 2 and a new window 9 re-materialised %d windows, want exactly those 2", got)
	}
}

// TestConcurrentFirstTouch has many readers race to materialise the same
// windows; every one must see the brute-force answers (run under -race).
func TestConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	st := randStore(t, rng, 12, 30, 6, 120)
	for _, w := range st.Windows() {
		st.AtWindow(w) // the store's own sort cache is not under test
	}
	ix := Build(st, DefaultGeometry())
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lt := NewLiveTargets([]ids.EID{eid(g), eid(g + 1), eid(g + 2)})
			for _, w := range st.Windows() {
				got, _ := ix.Candidates(w, lt, nil)
				if want := wantCandidates(st, lt, w); !slices.Equal(got, want) {
					errs <- fmt.Sprintf("goroutine %d window %d: candidates %v, want %v", g, w, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestLiveTargetsPrunes covers the streaming-side exact probe.
func TestLiveTargetsPrunes(t *testing.T) {
	lt := NewLiveTargets([]ids.EID{eid(3), eid(4)})
	esc := func(m map[ids.EID]scenario.Attr) *scenario.EScenario {
		return &scenario.EScenario{EIDs: m}
	}
	if lt.Prunes(esc(map[ids.EID]scenario.Attr{eid(3): scenario.AttrInclusive, eid(9): scenario.AttrInclusive})) {
		t.Error("scenario with a live inclusive target must not prune")
	}
	if !lt.Prunes(esc(map[ids.EID]scenario.Attr{eid(3): scenario.AttrVague})) {
		t.Error("vague-only appearance of a live target must prune")
	}
	if !lt.Prunes(esc(map[ids.EID]scenario.Attr{eid(8): scenario.AttrInclusive})) {
		t.Error("scenario without live targets must prune")
	}
	if !lt.Prunes(esc(nil)) {
		t.Error("empty scenario must prune")
	}
	lt.Resolve(eid(3))
	if !lt.Prunes(esc(map[ids.EID]scenario.Attr{eid(3): scenario.AttrInclusive})) {
		t.Error("resolved target must no longer block pruning")
	}
	if lt.NumLive() != 1 {
		t.Errorf("NumLive = %d, want 1", lt.NumLive())
	}
	var nilLT *LiveTargets
	if !nilLT.Prunes(esc(map[ids.EID]scenario.Attr{eid(4): scenario.AttrInclusive})) {
		t.Error("nil LiveTargets must prune everything")
	}
	if single := NewLiveTargets([]ids.EID{eid(5)}); !single.Prunes(esc(map[ids.EID]scenario.Attr{eid(5): scenario.AttrInclusive})) {
		t.Error("singleton target list is born resolved and must prune everything")
	}
}

// TestBuildDeterministic pins that two stores holding the same scenarios
// answer alike, whatever order their windows were first touched in — the order
// that decides which ordinal each EID gets.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := randStore(t, rng, 10, 30, 5, 70)
	twin := scenario.NewStore(nil)
	for id := scenario.ID(0); int(id) < st.Len(); id++ {
		e := *st.E(id)
		addScenario(t, twin, e.Cell, e.Window, e.EIDs)
	}
	a, b := Build(st, DefaultGeometry()), Build(twin, DefaultGeometry())
	targets := []ids.EID{eid(0), eid(1), eid(2)}
	wins := st.Windows()
	for i := range wins {
		wa, wb := wins[i], wins[len(wins)-1-i]
		a.Candidates(wa, NewLiveTargets(targets), nil)
		b.Candidates(wb, NewLiveTargets(targets), nil)
	}
	for _, w := range wins {
		ca, ta := a.Candidates(w, NewLiveTargets(targets), nil)
		cb, tb := b.Candidates(w, NewLiveTargets(targets), nil)
		if ta != tb || !slices.Equal(ca, cb) {
			t.Fatalf("window %d: the two indexes diverged (%v/%d vs %v/%d)", w, ca, ta, cb, tb)
		}
	}
}

// FuzzIndexHostile feeds adversarial scenario shapes — empty EID sets,
// duplicate cells, negative and huge coordinates, unknown probe EIDs —
// through Build, Candidates, InclusiveAt and the live tracker, asserting no
// panics and the brute-force answers.
func FuzzIndexHostile(f *testing.F) {
	f.Add(int64(1), int64(-5), 3, uint8(2), uint8(0))
	f.Add(int64(-1<<40), int64(0), 0, uint8(0), uint8(3))
	f.Add(int64(7), int64(1<<30), -2, uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, cell1, cell2 int64, window int, eidByte, probeByte uint8) {
		st := scenario.NewStore(nil)
		e1, probe := eid(int(eidByte)), eid(int(probeByte))
		addScenario(t, st, geo.CellID(cell1), window, map[ids.EID]scenario.Attr{e1: scenario.AttrInclusive})
		addScenario(t, st, geo.CellID(cell2), window, nil) // empty EID set
		addScenario(t, st, geo.CellID(cell1), window+1, map[ids.EID]scenario.Attr{
			e1: scenario.AttrVague, probe: scenario.AttrInclusive,
		})
		addScenario(t, st, geo.CellID(cell1), window, map[ids.EID]scenario.Attr{e1: scenario.AttrInclusive}) // duplicate shape

		ix := Build(st, DefaultGeometry())
		checkIndex(t, "fuzz", st, ix, []ids.EID{e1, probe, eid(255)}, []ids.EID{e1, probe, e1})
		lt := NewLiveTargets([]ids.EID{e1, probe})
		for id := scenario.ID(0); int(id) < st.Len(); id++ {
			lt.Prunes(st.E(id))
		}
		lt.Prunes(nil)
		lt.Resolve(e1)
		lt.Resolve(probe)
		lt.Resolve(eid(254))
		if cands, _ := ix.Candidates(window, lt, nil); len(cands) != 0 {
			t.Fatalf("candidates %v survive resolving every target", cands)
		}
	})
}
