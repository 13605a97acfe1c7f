package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"evmatching/internal/blocking"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// TestConcurrentMatchesOnColdMatcher has eight Match calls with different
// target sets race over one store through one new Matcher; each must land on
// the fingerprint its target set gets when matched alone over a twin world
// (run under -race: the matches share the store's postings and intern table,
// and its VID ordinals are recorded while others read them).
func TestConcurrentMatchesOnColdMatcher(t *testing.T) {
	ds, twin := testDataset(t, nil), testDataset(t, nil)
	all := ds.AllEIDs()
	const calls = 8
	targets := make([][]ids.EID, calls)
	want := make([]string, calls)
	for i := range targets {
		targets[i] = all[i*7 : i*7+10+i] // overlapping, differently sized
		rep, err := newMatcher(t, twin, Options{Seed: 3}).Match(context.Background(), targets[i])
		if err != nil {
			t.Fatalf("serial match %d: %v", i, err)
		}
		want[i] = rep.Fingerprint()
	}

	got := matchConcurrently(t, targets, func(int) *Matcher { return newMatcher(t, ds, Options{Seed: 3}) }, true)
	for i := range targets {
		if got[i] != want[i] {
			t.Errorf("concurrent match %d: fingerprint %s, serial %s", i, got[i], want[i])
		}
	}
}

// TestConcurrentMatchersOverOneStore is the same race with nothing shared but
// the store: SS and EDP matchers of their own, none matched before.
func TestConcurrentMatchersOverOneStore(t *testing.T) {
	ds, twin := testDataset(t, nil), testDataset(t, nil)
	all := ds.AllEIDs()
	opts := []Options{{Seed: 3}, {Seed: 4, ScanOrder: ScanInOrder}, {Seed: 5, Algorithm: AlgorithmEDP}, {Seed: 6, Mode: ModeParallel}}
	targets := make([][]ids.EID, len(opts))
	want := make([]string, len(opts))
	for i := range opts {
		targets[i] = all[i*11 : i*11+25]
		rep, err := newMatcher(t, twin, opts[i]).Match(context.Background(), targets[i])
		if err != nil {
			t.Fatalf("serial match %d: %v", i, err)
		}
		want[i] = rep.Fingerprint()
	}
	got := matchConcurrently(t, targets, func(i int) *Matcher { return newMatcher(t, ds, opts[i]) }, false)
	for i := range opts {
		if got[i] != want[i] {
			t.Errorf("matcher %d (%+v) over the shared store: fingerprint %s, alone %s", i, opts[i], got[i], want[i])
		}
	}
}

// matchConcurrently runs one Match per target set at once — on one matcher
// when shared, else on one each — and returns the fingerprints.
func matchConcurrently(t *testing.T, targets [][]ids.EID, matcher func(int) *Matcher, shared bool) []string {
	t.Helper()
	ms := make([]*Matcher, len(targets))
	for i := range ms {
		if ms[i] = ms[0]; !shared || i == 0 {
			ms[i] = matcher(i)
		}
	}
	reps := make([]*Report, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = ms[i].Match(context.Background(), targets[i])
		}(i)
	}
	wg.Wait()
	got := make([]string, len(targets))
	for i := range targets {
		if errs[i] != nil {
			t.Fatalf("concurrent match %d: %v", i, errs[i])
		}
		got[i] = reps[i].Fingerprint()
	}
	return got
}

// TestSecondMatcherGrowsNoTables pins what store ownership buys: the first
// match over a store records the VID ordinals of the scenarios it extracts,
// and a new matcher over the same store — the one-shot evmatching.Match
// shape — finds them there: it grows neither the EID nor the VID ordinal
// table, and lands on the same fingerprint.
func TestSecondMatcherGrowsNoTables(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmSS, AlgorithmEDP} {
		ds := testDataset(t, nil)
		targets := ds.AllEIDs()[:40]
		opts := Options{Algorithm: alg, Seed: 9}
		first, err := newMatcher(t, ds, opts).Match(context.Background(), targets)
		if err != nil {
			t.Fatalf("%v first match: %v", alg, err)
		}
		eidOrds, vidOrds := ds.Store.NumOrdinals(), ds.Store.NumVIDs()
		if eidOrds == 0 || vidOrds == 0 {
			t.Fatalf("%v first match: %d EID and %d VID ordinals", alg, eidOrds, vidOrds)
		}
		second, err := newMatcher(t, ds, opts).Match(context.Background(), targets)
		if err != nil {
			t.Fatalf("%v second match: %v", alg, err)
		}
		if ds.Store.NumOrdinals() != eidOrds || ds.Store.NumVIDs() != vidOrds {
			t.Errorf("%v: a new matcher over a matched store grew the ordinal tables from %d EIDs, %d VIDs to %d, %d",
				alg, eidOrds, vidOrds, ds.Store.NumOrdinals(), ds.Store.NumVIDs())
		}
		if second.Fingerprint() != first.Fingerprint() {
			t.Errorf("%v: the second matcher's fingerprint differs from the first's", alg)
		}
	}
}

// TestEDPSelectMatchesReferenceScan checks the posting-driven E-filtering
// against the scan it replaced: per window, the first scenario in AtWindow
// order holding the EID inclusively.
func TestEDPSelectMatchesReferenceScan(t *testing.T) {
	for _, practical := range []bool{false, true} {
		ds := goldenDataset(t, practical)
		m := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP, Seed: 7})
		ix := blocking.Build(ds.Store, blocking.DefaultGeometry())
		for i, e := range append(ds.AllEIDs(), "never-seen") {
			got := m.edpSelect(e, int64(i), ix)
			if want := edpSelectByScan(m, e, int64(i)); !slices.Equal(got, want) {
				t.Fatalf("practical=%t: edpSelect(%s) = %v, reference scan %v", practical, e, got, want)
			}
		}
	}
}

// edpSelectByScan is edpSelect as it was before the store owned postings.
func edpSelectByScan(m *Matcher, e ids.EID, salt int64) []scenario.ID {
	var list []scenario.ID
	var candidates map[ids.EID]bool
	for _, w := range m.ds.Store.ShuffledWindows(m.rngFor(104729 + salt)) {
		var found *scenario.EScenario
		for _, id := range m.ds.Store.AtWindow(w) {
			if s := m.ds.Store.E(id); s.Inclusive(e) {
				found = s
				break
			}
		}
		if found == nil {
			continue
		}
		list = append(list, found.ID)
		if candidates == nil {
			candidates = make(map[ids.EID]bool)
			for other, a := range found.EIDs {
				if a == scenario.AttrInclusive {
					candidates[other] = true
				}
			}
		} else {
			for other := range candidates {
				if !found.Inclusive(other) {
					delete(candidates, other)
				}
			}
		}
		if len(candidates) <= 1 || len(list) >= maxListLen {
			break
		}
	}
	return list
}

// TestBlockCountersCoverScannedWindows pins what the operator-facing
// counters mean: candidates + pruned is the number of scenarios in the
// windows the split scanned — with an in-order scan, a prefix of the store's
// windows — and nothing else.
func TestBlockCountersCoverScannedWindows(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{ScanOrder: ScanInOrder})
	rep, err := m.Match(context.Background(), ds.AllEIDs()[:30])
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if rep.RefineRounds != 0 {
		t.Fatalf("refining ran %d extra rounds; the prefix argument needs exactly one split", rep.RefineRounds)
	}
	if rep.BlockCandidates == 0 || rep.BlockPruned == 0 {
		t.Fatalf("candidates=%d pruned=%d: the world exercises neither side", rep.BlockCandidates, rep.BlockPruned)
	}
	sum, covered := int64(0), 0
	for _, w := range ds.Store.Windows() {
		if sum >= rep.BlockCandidates+rep.BlockPruned {
			break
		}
		sum += int64(len(ds.Store.AtWindow(w)))
		covered++
	}
	if sum != rep.BlockCandidates+rep.BlockPruned {
		t.Errorf("candidates %d + pruned %d = %d is not the scenario count of a window prefix (first %d windows hold %d)",
			rep.BlockCandidates, rep.BlockPruned, rep.BlockCandidates+rep.BlockPruned, covered, sum)
	}
	if covered == len(ds.Store.Windows()) {
		t.Log("the split scanned every window; the early-exit side of the accounting is not exercised")
	}
}

// TestHostileOrderAgrees drives a window whose Adds arrive out of cell order,
// with two scenarios on one cell and EIDs inclusive in several scenarios:
// AtWindow, InclusiveAt, Candidates on both of its paths and the padding's
// pick must all read the window in (cell, ID) order.
func TestHostileOrderAgrees(t *testing.T) {
	st := scenario.NewStore(nil)
	add := func(cell geo.CellID, eids ...ids.EID) scenario.ID {
		set := make(map[ids.EID]scenario.Attr)
		for _, e := range eids {
			set[e] = scenario.AttrInclusive
		}
		id, err := st.Add(&scenario.EScenario{Cell: cell, Window: 0, EIDs: set}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	s9 := add(9, "x", "a")
	s2 := add(2, "x", "b")
	s5 := add(5, "y", "c")
	s2b := add(2, "x", "y") // the second scenario on cell 2
	s0 := add(0, "y", "d")
	if got, want := st.AtWindow(0), []scenario.ID{s0, s2, s2b, s5, s9}; !slices.Equal(got, want) {
		t.Fatalf("AtWindow = %v, want %v", got, want)
	}
	ix := blocking.Build(st, blocking.DefaultGeometry())
	for e, want := range map[ids.EID][]scenario.ID{"x": {s2, s2b, s9}, "y": {s0, s2b, s5}, "a": {s9}} {
		if got := ix.InclusiveAt(e, 0); !slices.Equal(got, want) {
			t.Errorf("InclusiveAt(%s) = %v, want %v", e, got, want)
		}
	}
	for _, targets := range [][]ids.EID{{"x", "y"}, {"x", "b"}, {"x", "y", "a", "b", "c", "d"}} {
		ords := make([]int32, len(targets))
		for i, e := range targets {
			ords[i] = st.Ordinal(e)
		}
		live := blocking.NewLiveTargets(ords)
		var want []scenario.ID
		for _, id := range st.AtWindow(0) {
			if !live.Prunes(st.View(id)) {
				want = append(want, id)
			}
		}
		if got := ix.Candidates(0, live, nil); !slices.Equal(got, want) {
			t.Errorf("targets %v: Candidates = %v, want %v", targets, got, want)
		}
	}
	x := st.Ordinal("x")
	for _, tc := range []struct{ list, want []scenario.ID }{
		{nil, []scenario.ID{s2}},
		{[]scenario.ID{s2}, []scenario.ID{s2, s2b}},
		{[]scenario.ID{s2, s2b}, []scenario.ID{s2, s2b, s9}},
	} {
		if got := padToUnique(st, ix, x, tc.list, []int{0}); !slices.Equal(got, tc.want) {
			t.Errorf("padding x from %v picked %v, want %v", tc.list, got, tc.want)
		}
	}
}
