package stream

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/vfilter"
)

// TestMemoSavingsTable records, as data and not as a gate, what the V
// filter's MaxSim memo saves on four worlds: bench's batch-paper and
// batch-sparse worlds matched in batch, and the paper world and bench's
// serve-ingest practical world replayed through an Engine. For each it logs
// the (candidate, scenario) pairs the answers rest on (Stats.Pairs), the
// pairs the kernel evaluated, the distinct representatives interned and the
// memo's storage. It runs at GOMAXPROCS 1, where which pairs hit is
// deterministic, and only under -v; the numbers are in EXPERIMENTS.md.
func TestMemoSavingsTable(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("a data table, not a check: run with -v")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	paper := dataset.DefaultConfig()
	paper.NumWindows = 32
	practical := dataset.DefaultConfig().Practical()
	practical.Density = 180
	practical.VIDMissingRate = 0.3
	practical.NumWindows = 64
	sparse, err := dataset.ScalePreset(dataset.PresetSparseCity)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 65 // bench's first round at --seed 1
	t.Logf("%-16s | %9s | %12s | %9s | %15s | %s", "world", "pairs", "kernel pairs", "served", "representatives", "memo KB")
	row := func(name string, st vfilter.Stats, memo vfilter.MemoStats) {
		served := 0.0
		if st.Pairs > 0 {
			served = 1 - float64(memo.KernelPairs)/float64(st.Pairs)
		}
		t.Logf("%-16s | %9d | %12d | %8.1f%% | %15d | %d", name, st.Pairs, memo.KernelPairs,
			100*served, memo.Representatives, memo.Bytes/1024)
	}
	for _, w := range []struct {
		name    string
		cfg     dataset.Config
		replay  bool
		targets int // a seeded sample of this many; 0 for all
	}{
		{"paper batch", paper, false, 0},
		{"paper replay", paper, true, 0},
		{"practical replay", practical, true, 0},
		{"sparse batch", sparse, false, 2000},
	} {
		w.cfg.Seed = seed
		ds, err := dataset.Generate(w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		targets := ds.AllEIDs()
		if !w.replay {
			if w.targets > 0 {
				targets = ds.SampleEIDs(w.targets, rand.New(rand.NewSource(seed)))
			}
			m, err := core.New(ds, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Match(context.Background(), targets)
			if err != nil {
				t.Fatal(err)
			}
			row(w.name, rep.VStats, rep.VMemo)
			continue
		}
		_, obs, err := EventsFromDataset(ds, testWindowMS, seed)
		if err != nil {
			t.Fatal(err)
		}
		e := replayEngine(t, Config{Targets: targets, WindowMS: testWindowMS, LatenessMS: testLatenessMS, Dim: ds.Config.DescriptorDim()}, obs)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		row(w.name, e.filter.Stats(), e.filter.Memo())
	}
}
