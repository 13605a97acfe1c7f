package core

import (
	"context"
	"sync"
	"testing"

	"evmatching/internal/ids"
)

// TestConcurrentMatchesOnColdMatcher has eight Match calls with different
// target sets race to materialise the posting windows of one cold Matcher;
// each must land on the fingerprint its target set gets when matched alone
// (run under -race: the index is mutated while others read it).
func TestConcurrentMatchesOnColdMatcher(t *testing.T) {
	ds := testDataset(t, nil)
	all := ds.AllEIDs()
	const calls = 8
	targets := make([][]ids.EID, calls)
	want := make([]string, calls)
	for i := range targets {
		targets[i] = all[i*7 : i*7+10+i] // overlapping, differently sized
		rep, err := newMatcher(t, ds, Options{Seed: 3}).Match(context.Background(), targets[i])
		if err != nil {
			t.Fatalf("serial match %d: %v", i, err)
		}
		want[i] = rep.Fingerprint()
	}

	m := newMatcher(t, ds, Options{Seed: 3})
	got := make([]string, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := m.Match(context.Background(), targets[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = rep.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i := range targets {
		if errs[i] != nil {
			t.Fatalf("concurrent match %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent match %d: fingerprint %s, serial %s", i, got[i], want[i])
		}
	}
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
		sum += int64(m.blockIndex().WindowTotal(w))
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
