package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evmatching/internal/blocking"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/mrtest"
)

// withProcs runs fn at GOMAXPROCS n and restores the previous setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// sparseShortWorld is the sparse-city preset at 2000 persons with 100 sampled
// targets: the bench's batch-sparse world in its -short form.
func sparseShortWorld(t *testing.T) (*dataset.Dataset, []ids.EID) {
	t.Helper()
	cfg, err := dataset.ScalePreset(dataset.PresetSparseCity)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumPersons = 2000
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds, ds.SampleEIDs(100, rand.New(rand.NewSource(5)))
}

// TestPrefetchIdentity: the E stage's extraction helpers must not show.
// GOMAXPROCS 1 starts none and is the old schedule; at 2 and 8 the report —
// results, the recorded split, and what the filter extracted, refine rounds
// included — is the same, so the helpers extracted only listed scenarios.
func TestPrefetchIdentity(t *testing.T) {
	sparse, sparseTargets := sparseShortWorld(t)
	ideal, practical := goldenDataset(t, false), goldenDataset(t, true)
	worlds := []struct {
		name    string
		ds      *dataset.Dataset
		targets []ids.EID
	}{
		{"ideal", ideal, ideal.AllEIDs()[:20]},
		{"practical", practical, practical.AllEIDs()[:20]},
		{"sparse-short", sparse, sparseTargets},
	}
	refined := false
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			match := func(procs int) *Report {
				var rep *Report
				withProcs(procs, func() {
					var err error
					if rep, err = newMatcher(t, w.ds, Options{Seed: 7}).Match(context.Background(), w.targets); err != nil {
						t.Fatalf("GOMAXPROCS %d: Match: %v", procs, err)
					}
				})
				return rep
			}
			want := match(1)
			if want.PrefetchedScenarios != 0 {
				t.Errorf("GOMAXPROCS 1 prefetched %d scenarios; no helper may start", want.PrefetchedScenarios)
			}
			if want.VStats.ScenariosProcessed > want.SelectedScenarios {
				t.Errorf("processed %d scenarios, selected %d", want.VStats.ScenariosProcessed, want.SelectedScenarios)
			}
			refined = refined || want.RefineRounds > 0
			for _, procs := range []int{2, 8} {
				got := match(procs)
				if got.Fingerprint() != want.Fingerprint() {
					t.Errorf("GOMAXPROCS %d: fingerprint differs from GOMAXPROCS 1", procs)
				}
				if !slices.Equal(got.SplitScenarios, want.SplitScenarios) {
					t.Errorf("GOMAXPROCS %d: SplitScenarios = %v, want %v", procs, got.SplitScenarios, want.SplitScenarios)
				}
				if got.VStats.ScenariosProcessed != want.VStats.ScenariosProcessed || got.VStats.Extractions != want.VStats.Extractions {
					t.Errorf("GOMAXPROCS %d: extracted %d patches of %d scenarios, want %d of %d", procs,
						got.VStats.Extractions, got.VStats.ScenariosProcessed, want.VStats.Extractions, want.VStats.ScenariosProcessed)
				}
				if got.PrefetchedScenarios < len(got.SplitScenarios) {
					t.Errorf("GOMAXPROCS %d: prefetched %d scenarios, round 0 alone recorded %d",
						procs, got.PrefetchedScenarios, len(got.SplitScenarios))
				}
			}
		})
	}
	if !refined {
		t.Error("no world needed a refine round: later rounds' prefetch went untested")
	}

	// ModeParallel extracts in its own job and gets no helpers.
	withProcs(8, func() {
		rep, err := newMatcher(t, ideal, Options{Seed: 7, Mode: ModeParallel}).Match(context.Background(), ideal.AllEIDs()[:20])
		if err != nil {
			t.Fatal(err)
		}
		if rep.PrefetchedScenarios != 0 {
			t.Errorf("ModeParallel prefetched %d scenarios", rep.PrefetchedScenarios)
		}
	})
}

// TestPrefetchLeavesNoGoroutine: however a match ends — results, a patch that
// fails extraction, a cancelled context — its helpers have exited by the time
// Match returns, and a failing patch reports the error GOMAXPROCS 1 reports.
func TestPrefetchLeavesNoGoroutine(t *testing.T) {
	ds := goldenDataset(t, false)
	targets := ds.AllEIDs()[:20]
	match := func(procs int, ctx context.Context, ds *dataset.Dataset) (rep *Report, err error) {
		withProcs(procs, func() {
			base := mrtest.TakeLeakSnapshot()
			rep, err = newMatcher(t, ds, Options{Seed: 7}).Match(ctx, targets)
			if leaked := base.Leaked(2 * time.Second); len(leaked) > 0 {
				t.Errorf("GOMAXPROCS %d: goroutines outlive Match:\n  %s", procs, strings.Join(leaked, "\n  "))
			}
		})
		return rep, err
	}

	clean, err := match(8, context.Background(), ds)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if clean.PrefetchedScenarios == 0 {
		t.Fatal("no scenario was prefetched: the test would prove nothing")
	}

	// vfilter's TestFeaturesCachedError patch, planted in the first two
	// scenarios the split records: both get prefetched, and the error that
	// surfaces is still the one the rule-out order meets first.
	bad := goldenDataset(t, false)
	for _, id := range clean.SplitScenarios[:2] {
		bad.Store.V(id).Detections[0].Patch = feature.Patch{W: 2, H: 2, Pix: []byte{1}}
	}
	_, want := match(1, context.Background(), bad)
	if !errors.Is(want, feature.ErrBadPatch) {
		t.Fatalf("GOMAXPROCS 1 over a bad patch: %v, want feature.ErrBadPatch", want)
	}
	for _, procs := range []int{2, 8} {
		if _, err := match(procs, context.Background(), bad); err == nil || err.Error() != want.Error() {
			t.Errorf("GOMAXPROCS %d: error %v, want %v", procs, err, want)
		}
	}

	// Cancelled between the split and the end of the V stage, with helpers
	// already at work.
	for _, after := range []int64{20, 40, 60} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(after)
		if _, err := match(8, ctx, ds); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled after %d checks: error %v, want context.Canceled", after, err)
		}
	}
}

// countdownCtx reports context.Canceled from its (left+1)-th Err call on,
// cancelling a match at a chosen point of its work rather than of the clock.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSplitStageCancelsDuringListDerivation: per-target list derivation checks
// the context like the window loop does and fails with the same error.
func TestSplitStageCancelsDuringListDerivation(t *testing.T) {
	ds, _ := sparseShortWorld(t)
	targets := ds.AllEIDs()
	m := newMatcher(t, ds, Options{Seed: 7})
	ix := blocking.Build(ds.Store, blocking.DefaultGeometry())
	for _, procs := range []int{1, 8} {
		withProcs(procs, func() {
			// Count the checks of an uncancelled run: the last len(targets)
			// and one belong to the derivation.
			counting := &countdownCtx{Context: context.Background()}
			counting.left.Store(1 << 40)
			if _, _, err := m.splitStage(counting, targets, 0, ix, nil, nil); err != nil {
				t.Fatalf("splitStage: %v", err)
			}
			checks := 1<<40 - counting.left.Load()
			if checks <= int64(len(targets)) {
				t.Fatalf("%d context checks over %d targets: derivation does not check per target", checks, len(targets))
			}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(checks - int64(len(targets))/2)
			_, lists, err := m.splitStage(ctx, targets, 0, ix, nil, nil)
			if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "core: split stage: ") {
				t.Errorf("GOMAXPROCS %d: cancelled mid-derivation: error %v, want core: split stage: context canceled", procs, err)
			}
			if lists != nil {
				t.Errorf("GOMAXPROCS %d: cancelled split stage returned %d lists", procs, len(lists))
			}
		})
	}
}
