package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/partition"
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
		for i, e := range append(ds.AllEIDs(), "never-seen") {
			got := m.edpSelect(e, int64(i))
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
// AtWindow, the postings, the partition's Candidates on both of its paths and
// the padding's pick must all read the window in (cell, ID) order.
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
	for e, want := range map[ids.EID][]scenario.ID{"x": {s2, s2b, s9}, "y": {s0, s2b, s5}, "a": {s9}} {
		if got := st.Postings(0).Held(st.Ordinal(e)); !slices.Equal(got, want) {
			t.Errorf("postings of %s = %v, want %v", e, got, want)
		}
	}
	for _, targets := range [][]ids.EID{{"x", "y"}, {"x", "b"}, {"x", "y", "a", "b", "c", "d"}} {
		p, err := partition.New(targets)
		if err != nil {
			t.Fatal(err)
		}
		p.BindStore(st)
		var want []scenario.ID
		for _, id := range st.AtWindow(0) {
			if !p.Prunes(st.View(id)) {
				want = append(want, id)
			}
		}
		if got := p.Candidates(0, nil); !slices.Equal(got, want) {
			t.Errorf("targets %v: Candidates = %v, want %v", targets, got, want)
		}
	}
	x := st.Ordinal("x")
	for _, tc := range []struct{ list, want []scenario.ID }{
		{nil, []scenario.ID{s2}},
		{[]scenario.ID{s2}, []scenario.ID{s2, s2b}},
		{[]scenario.ID{s2, s2b}, []scenario.ID{s2, s2b, s9}},
	} {
		if got := padToUnique(st, x, tc.list, []int{0}); !slices.Equal(got, tc.want) {
			t.Errorf("padding x from %v picked %v, want %v", tc.list, got, tc.want)
		}
	}
}

// equivWorlds is how many randomized worlds TestBlockedSplitEquivalence
// sweeps; -short trims the tail for the race tier's time budget.
const equivWorlds = 50

// TestBlockedSplitEquivalence is the soundness oracle for DESIGN.md §13:
// across ≥50 seeded random worlds — sweeping density, window count, target
// sizes, serial and parallel modes, shuffled and in-order scans — the
// blocked matcher must record the identical effective-scenario sequence and
// produce the identical report fingerprint as the exhaustive matcher. Any
// false prune (a skipped scenario that would have split) diverges the
// SplitScenarios sequence and fails here.
func TestBlockedSplitEquivalence(t *testing.T) {
	n := equivWorlds
	if testing.Short() {
		n = 12
	}
	rng := rand.New(rand.NewSource(99))
	prunedTotal := int64(0)
	for trial := 0; trial < n; trial++ {
		cfg := dataset.DefaultConfig()
		cfg.Seed = int64(1000 + trial)
		cfg.NumPersons = 30 + rng.Intn(60)
		cfg.Density = 4 + rng.Float64()*16
		cfg.NumWindows = 4 + rng.Intn(8)
		cfg.FeatureDim = 8
		cfg.VIDMissingRate = 0.3 * rng.Float64()
		ds, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatalf("trial %d: Generate: %v", trial, err)
		}
		all := ds.AllEIDs()
		if len(all) < 2 {
			continue
		}
		targets := make([]ids.EID, 0, 2+rng.Intn(6))
		for len(targets) < cap(targets) {
			targets = append(targets, all[rng.Intn(len(all))])
		}
		opts := Options{
			Mode:       ModeSerial,
			ScanOrder:  ScanShuffled,
			Seed:       int64(1 + trial),
			WorkFactor: 1,
		}
		if trial%2 == 1 {
			opts.Mode = ModeParallel
		}
		if trial%3 == 1 {
			opts.ScanOrder = ScanInOrder
		}

		blocked, err := newMatcher(t, ds, opts).Match(context.Background(), targets)
		if err != nil {
			t.Fatalf("trial %d: blocked match: %v", trial, err)
		}
		opts.DisableBlocking = true
		exhaustive, err := newMatcher(t, ds, opts).Match(context.Background(), targets)
		if err != nil {
			t.Fatalf("trial %d: exhaustive match: %v", trial, err)
		}

		if got, want := blocked.Fingerprint(), exhaustive.Fingerprint(); got != want {
			t.Errorf("trial %d (mode %v, scan %v, %d targets): fingerprint %s != exhaustive %s",
				trial, opts.Mode, opts.ScanOrder, len(targets), got, want)
		}
		if len(blocked.SplitScenarios) != len(exhaustive.SplitScenarios) {
			t.Fatalf("trial %d: %d effective scenarios blocked vs %d exhaustive",
				trial, len(blocked.SplitScenarios), len(exhaustive.SplitScenarios))
		}
		for i := range blocked.SplitScenarios {
			if blocked.SplitScenarios[i] != exhaustive.SplitScenarios[i] {
				t.Fatalf("trial %d: effective scenario %d is %d blocked vs %d exhaustive",
					trial, i, blocked.SplitScenarios[i], exhaustive.SplitScenarios[i])
			}
		}
		if exhaustive.BlockCandidates != 0 || exhaustive.BlockPruned != 0 {
			t.Errorf("trial %d: exhaustive run reported blocking counters %d/%d",
				trial, exhaustive.BlockCandidates, exhaustive.BlockPruned)
		}
		if blocked.BlockCandidates+blocked.BlockPruned > 0 && blocked.BlockPruneRatio() < 0 {
			t.Errorf("trial %d: negative prune ratio", trial)
		}
		prunedTotal += blocked.BlockPruned
	}
	// The sweep as a whole must actually exercise pruning, or the property
	// proves nothing.
	if prunedTotal == 0 {
		t.Error("no scenario was ever pruned across the sweep; blocking path not exercised")
	}
}
