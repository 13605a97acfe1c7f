package partition_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
)

// eid makes the n-th test EID.
func eid(n int) ids.EID { return ids.EID(fmt.Sprintf("e%02d", n)) }

// addScenario registers one E-Scenario with the given (cell, window) and
// EID→attr set. Test stores are well-formed, so an Add error is fatal.
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

// bound is a partition bound to a store beside the brute-force oracle of its
// live set: the distinct targets not yet retired, none when fewer than two
// were given (a lone target is born resolved).
type bound struct {
	st   *scenario.Store
	p    *partition.Partition
	live map[ids.EID]bool
}

func bind(t *testing.T, st *scenario.Store, targets ...ids.EID) *bound {
	t.Helper()
	p, err := partition.New(targets)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.BindStore(st)
	b := &bound{st: st, p: p, live: make(map[ids.EID]bool)}
	if p.NumTargets() > 1 {
		for _, e := range targets {
			b.live[e] = true
		}
	}
	return b
}

// retire resolves target e in the live set, as a split would.
func (b *bound) retire(e ids.EID) {
	b.p.Retire(b.st.Ordinal(e))
	delete(b.live, e)
}

// candidates is Candidates into a fresh buffer, beside the window's total
// scenario count.
func (b *bound) candidates(w int) ([]scenario.ID, int) {
	return b.p.Candidates(w, nil), len(b.st.AtWindow(w))
}

// want is the brute-force candidate list: the scenarios of w holding any
// live target inclusively, in AtWindow order.
func (b *bound) want(w int) []scenario.ID {
	var want []scenario.ID
	for _, id := range b.st.AtWindow(w) {
		for e, a := range b.st.E(id).EIDs {
			if b.live[e] && a == scenario.AttrInclusive {
				want = append(want, id)
				break
			}
		}
	}
	return want
}

// wantHeld is the brute-force posting: the scenarios of w holding e
// inclusively, in AtWindow order.
func wantHeld(st *scenario.Store, e ids.EID, w int) []scenario.ID {
	var want []scenario.ID
	for _, id := range st.AtWindow(w) {
		if st.E(id).Inclusive(e) {
			want = append(want, id)
		}
	}
	return want
}

// check compares every posting the candidate walk reads and every Candidates
// and Prunes answer of b with the brute-force AtWindow scan, over the store's
// windows plus two it never saw.
func (b *bound) check(t *testing.T, label string, probes []ids.EID) {
	t.Helper()
	st := b.st
	if got, want := b.p.NumLive(), len(b.live); got != want {
		t.Fatalf("%s: NumLive = %d, want %d", label, got, want)
	}
	for _, w := range append(st.Windows(), -77, 1<<20) {
		for _, e := range probes {
			if got, want := st.Postings(w).Held(st.Ordinal(e)), wantHeld(st, e, w); !slices.Equal(got, want) {
				t.Fatalf("%s: postings of (%s,%d) = %v, want %v", label, e, w, got, want)
			}
		}
		cands := b.p.Candidates(w, []scenario.ID{-5})
		if cands[0] != -5 {
			t.Fatalf("%s: Candidates(%d) overwrote the caller's buffer prefix", label, w)
		}
		want := b.want(w)
		if got := cands[1:]; !slices.Equal(got, want) {
			t.Fatalf("%s: Candidates(%d) = %v, want %v", label, w, got, want)
		}
		for _, id := range st.AtWindow(w) {
			if got, pruned := b.p.Prunes(st.View(id)), !slices.Contains(want, id); got != pruned {
				t.Fatalf("%s: Prunes(scenario %d) = %t, want %t", label, id, got, pruned)
			}
		}
	}
}

// TestCandidatesSound checks the candidate walk against brute force over
// randomized stores: a window's candidates are exactly the scenarios holding
// a live target inclusively, in AtWindow order, and stay so as targets
// resolve.
func TestCandidatesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probes := make([]ids.EID, 14) // eid(12), eid(13) are never observed
	for i := range probes {
		probes[i] = eid(i)
	}
	for trial := 0; trial < 30; trial++ {
		st := randStore(t, rng, 12, 40, 6, 80)
		var targets []ids.EID
		for n := 2 + rng.Intn(24); n > 0; n-- { // few to all of the EIDs: both sides of the walk
			targets = append(targets, eid(rng.Intn(14)))
		}
		targets = append(targets, targets[0]) // duplicate target must be harmless
		b := bind(t, st, targets...)
		b.check(t, fmt.Sprintf("trial %d", trial), probes)

		b.retire(targets[0])
		for _, w := range st.Windows() {
			if got, _ := b.candidates(w); !slices.Equal(got, b.want(w)) {
				t.Fatalf("trial %d window %d after a resolve: candidates %v, want %v", trial, w, got, b.want(w))
			}
		}
	}
}

// TestCandidatesEmptyLive pins the degenerate live sets: an unknown window
// contributes nothing, and a partition bound to an empty store has no
// candidates; a singleton-born, an unbound or a fully retired partition
// prunes the whole window while the total still counts it for accounting.
func TestCandidatesEmptyLive(t *testing.T) {
	if cands, total := bind(t, scenario.NewStore(nil), eid(1), eid(2)).candidates(0); len(cands) != 0 || total != 0 {
		t.Errorf("empty store: Candidates = %v, total %d", cands, total)
	}
	st := scenario.NewStore(nil)
	addScenario(t, st, 1, 0, map[ids.EID]scenario.Attr{eid(1): scenario.AttrInclusive})
	addScenario(t, st, 2, 0, map[ids.EID]scenario.Attr{eid(2): scenario.AttrInclusive})
	both := bind(t, st, eid(1), eid(2))
	if cands, total := both.candidates(99); len(cands) != 0 || total != 0 {
		t.Errorf("unknown window: got %d candidates, total %d", len(cands), total)
	}
	if cands, _ := both.candidates(0); len(cands) != 2 {
		t.Errorf("two live targets in two scenarios: got %d candidates", len(cands))
	}
	unbound, err := partition.New([]ids.EID{eid(1), eid(2)})
	if err != nil {
		t.Fatal(err)
	}
	retired := bind(t, st, eid(1), eid(2))
	retired.retire(eid(1))
	retired.retire(eid(2))
	for name, p := range map[string]*partition.Partition{
		"singleton": bind(t, st, eid(1)).p,
		"unbound":   unbound,
		"retired":   retired.p,
	} {
		if cands, total := p.Candidates(0, nil), len(st.AtWindow(0)); len(cands) != 0 || total != 2 {
			t.Errorf("%s: got %d candidates, total %d; want 0 and 2", name, len(cands), total)
		}
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
	for _, targets := range [][]ids.EID{
		{eid(1), eid(2)}, {eid(3), eid(4)}, {eid(1), eid(2), eid(3), eid(4)}, {eid(2), eid(99)}, {eid(98), eid(99)},
	} {
		bind(t, st, targets...).check(t, fmt.Sprint(targets), probes)
	}
	if got := st.Postings(-3).Held(st.Ordinal(eid(1))); len(got) != 3 {
		t.Errorf("eid(1) is inclusive in 3 scenarios of window -3, its postings hold %v", got)
	}
}

// TestStoreGrowsAfterFirstTouch drives one and the same bound partition
// across Store.Add: the postings live in the store, which writes them at
// Add, so a partition bound before the growth answers for the grown store —
// including for an EID whose ordinal was interned after the older windows'
// arrays were sized.
func TestStoreGrowsAfterFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	st := randStore(t, rng, 8, 20, 4, 40)
	probes := []ids.EID{eid(0), eid(1), eid(2), eid(3), eid(4), eid(5), eid(6), eid(7), eid(50)}
	targets := []ids.EID{eid(0), eid(1), eid(2), eid(3), eid(50)}
	b := bind(t, st, targets...) // bound to the small store
	b.check(t, "before growth", probes)

	// eid(51) enters the store only now: its ordinal lies past the end of
	// every array sized before but window 2's, which the Add grows.
	grown := addScenario(t, st, 3, 2, map[ids.EID]scenario.Attr{eid(51): scenario.AttrInclusive, eid(1): scenario.AttrInclusive})
	addScenario(t, st, 4, 9, map[ids.EID]scenario.Attr{eid(2): scenario.AttrInclusive, eid(51): scenario.AttrVague}) // a new window
	if got := st.Postings(2).Held(st.Ordinal(eid(51))); !slices.Contains(got, grown) {
		t.Errorf("postings of (eid(51), 2) = %v, without scenario %d", got, grown)
	}
	if got := st.Postings(0).Held(st.Ordinal(eid(51))); got != nil {
		t.Errorf("postings of (eid(51), 0) = %v: an ordinal past an older window's array must read absent", got)
	}
	b.check(t, "same partition after growth", append(probes, eid(51)))
	bind(t, st, append(targets, eid(51))...).check(t, "bound after growth", append(probes, eid(51)))
}

// TestLiveTargetsPrunes covers the streaming side's exact probe, over the
// views of a store that grows after the partition is bound to it.
func TestLiveTargetsPrunes(t *testing.T) {
	st := scenario.NewStore(nil)
	b := bind(t, st, eid(3), eid(4))
	view := func(m map[ids.EID]scenario.Attr) scenario.EView {
		return st.View(addScenario(t, st, 0, 0, m))
	}
	if b.p.Prunes(view(map[ids.EID]scenario.Attr{eid(3): scenario.AttrInclusive, eid(9): scenario.AttrInclusive})) {
		t.Error("scenario with a live inclusive target must not prune")
	}
	if !b.p.Prunes(view(map[ids.EID]scenario.Attr{eid(3): scenario.AttrVague})) {
		t.Error("vague-only appearance of a live target must prune")
	}
	if !b.p.Prunes(view(map[ids.EID]scenario.Attr{eid(8): scenario.AttrInclusive})) {
		t.Error("scenario without live targets must prune")
	}
	if !b.p.Prunes(view(nil)) {
		t.Error("empty scenario must prune")
	}
	b.retire(eid(3))
	if !b.p.Prunes(view(map[ids.EID]scenario.Attr{eid(3): scenario.AttrInclusive})) {
		t.Error("resolved target must no longer block pruning")
	}
	if b.p.NumLive() != 1 {
		t.Errorf("NumLive = %d, want 1", b.p.NumLive())
	}
	unbound, err := partition.New([]ids.EID{eid(4), eid(5)})
	if err != nil {
		t.Fatal(err)
	}
	if !unbound.Prunes(view(map[ids.EID]scenario.Attr{eid(4): scenario.AttrInclusive})) {
		t.Error("a partition bound to no store must prune everything")
	}
	if single := bind(t, st, eid(5), eid(5)); single.p.NumLive() != 0 || !single.p.Prunes(view(map[ids.EID]scenario.Attr{eid(5): scenario.AttrInclusive})) {
		t.Error("a single target, even listed twice, is born resolved and must prune everything")
	}
}

// TestBuildDeterministic pins that partitions bound to two stores holding
// the same scenarios answer alike, whatever order their windows are read in.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := randStore(t, rng, 10, 30, 5, 70)
	twin := scenario.NewStore(nil)
	for id := scenario.ID(0); int(id) < st.Len(); id++ {
		e := *st.E(id)
		addScenario(t, twin, e.Cell, e.Window, e.EIDs)
	}
	targets := []ids.EID{eid(0), eid(1), eid(2)}
	a, b := bind(t, st, targets...), bind(t, twin, targets...)
	wins := st.Windows()
	for i := range wins {
		a.candidates(wins[i])
		b.candidates(wins[len(wins)-1-i])
	}
	for _, w := range wins {
		ca, ta := a.candidates(w)
		cb, tb := b.candidates(w)
		if ta != tb || !slices.Equal(ca, cb) {
			t.Fatalf("window %d: the two partitions diverged (%v/%d vs %v/%d)", w, ca, ta, cb, tb)
		}
	}
}

// FuzzCandidatesHostile feeds adversarial scenario shapes — empty EID sets,
// duplicate cells, negative and huge coordinates, unknown probe EIDs —
// through BindStore, Candidates, Prunes and the postings they read,
// asserting no panics and the brute-force answers.
func FuzzCandidatesHostile(f *testing.F) {
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

		bind(t, st, e1, probe, e1).check(t, "fuzz", []ids.EID{e1, probe, eid(255)})
		b := bind(t, st, e1, probe)
		b.retire(e1)
		b.retire(probe)
		b.retire(eid(254))
		if cands, _ := b.candidates(window); len(cands) != 0 {
			t.Fatalf("candidates %v survive resolving every target", cands)
		}
	})
}
