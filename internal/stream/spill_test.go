package stream

import (
	"bytes"
	"context"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/scenario"
)

// streamWorkingSetBytes sums the budget-accounting cost of every V payload a
// dataset's stream replay will hold — the denominator for "budget several
// times smaller than the data" assertions.
func streamWorkingSetBytes(t *testing.T, cfg Config, obs []Observation) int64 {
	t.Helper()
	e, err := NewEngine(Config{
		Targets:    cfg.Targets,
		WindowMS:   cfg.WindowMS,
		LatenessMS: cfg.LatenessMS,
		Dim:        cfg.Dim,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	total := int64(0)
	for id := 0; id < e.store.Len(); id++ {
		if v := e.store.V(scenario.ID(id)); v != nil {
			total += vPayloadBytes(v)
		}
	}
	return total
}

// TestStreamSpillEquivalence pins the spill tier's streaming invariant:
// with MemBudget a quarter of the sealed working set, the replay evicts
// (SpillStats proves it) yet the final fingerprint is byte-identical to the
// unbudgeted run — Finalize's serial reference, and a parallel batch run
// over the paged store the replay built. (Shuffle-run
// spilling needs a budget sized to the much smaller shuffle byte volume;
// the mapreduce tests and internal/scaletest's TestScaleSmokeSpill cover it.)
func TestStreamSpillEquivalence(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSerial, core.ModeParallel} {
		t.Run(mode.String(), func(t *testing.T) {
			ds := testDataset(t, false)
			targets := ds.AllEIDs()[:20]
			_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
			if err != nil {
				t.Fatalf("EventsFromDataset: %v", err)
			}
			base := testConfig(ds, targets)
			want := finalFingerprint(t, replayEngine(t, base, obs), mode)

			cfg := base
			cfg.MemBudget = streamWorkingSetBytes(t, base, obs) / 4
			cfg.SpillDir = t.TempDir()
			if cfg.MemBudget < 1 {
				t.Fatalf("working set too small to constrain: budget %d", cfg.MemBudget)
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for i, o := range obs {
				if _, err := e.Ingest(o); err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
			}
			if got := finalFingerprint(t, e, mode); got != want {
				t.Errorf("budgeted fingerprint diverges from unbudgeted:\n--- want\n%s\n--- got\n%s", want, got)
			}
			snap := e.SpillStats()
			if snap.Evictions == 0 || snap.BytesSpilled == 0 {
				t.Errorf("budget %d forced no evictions: %+v", cfg.MemBudget, snap)
			}
			if snap.Reloads == 0 {
				t.Errorf("finalize never paged evicted state back in: %+v", snap)
			}
		})
	}
}

// TestStreamSpillCheckpointRoundTrip checks that a checkpoint taken over
// partially evicted state pages everything back in (the image is complete),
// restores into a fresh budgeted engine — which re-evicts down to budget —
// and that the restored engine finalizes to the unbudgeted fingerprint.
func TestStreamSpillCheckpointRoundTrip(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:20]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	base := testConfig(ds, targets)
	want := replayFingerprint(t, base, obs)

	cfg := base
	cfg.MemBudget = streamWorkingSetBytes(t, base, obs) / 4
	cfg.SpillDir = t.TempDir()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cut := len(obs) * 3 / 4
	for i, o := range obs[:cut] {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if e.SpillStats().Evictions == 0 {
		t.Fatalf("no evictions before checkpoint; budget %d too large", cfg.MemBudget)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint over evicted state: %v", err)
	}
	restored, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.SpillStats().Evictions == 0 {
		t.Errorf("restored engine held the full checkpoint resident despite budget")
	}
	for i, o := range obs[cut:] {
		if _, err := restored.Ingest(o); err != nil {
			t.Fatalf("Ingest %d after restore: %v", cut+i, err)
		}
	}
	rep, err := restored.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize after restore: %v", err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Errorf("restored budgeted fingerprint diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
