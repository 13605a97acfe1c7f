package stream

import (
	"context"
	"fmt"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
)

// TestScanOrderCostTable records, as data and not as a gate, what the order
// the E stage scans windows in costs on two worlds: the paper's §VI world
// (bench's batch-paper) and the practical world bench's serve-ingest
// streams. For each it logs the accuracy and the V kernel's (candidate,
// scenario) pairs of a shuffled batch match and of a ScanInOrder one — the
// order a stream sees windows in — and the accuracy of the live resolutions
// an Engine emits over the same world's log. It runs only under -v; the
// numbers are in EXPERIMENTS.md.
func TestScanOrderCostTable(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("a data table, not a check: run with -v")
	}
	paper := dataset.DefaultConfig()
	paper.NumWindows = 32
	practical := dataset.DefaultConfig().Practical()
	practical.Density = 180
	practical.VIDMissingRate = 0.3
	practical.NumWindows = 64
	t.Logf("%-9s | %-24s | %-24s | %s", "world", "shuffled acc / pairs", "in-order acc / pairs", "live acc")
	for _, w := range []struct {
		name string
		cfg  dataset.Config
	}{{"paper", paper}, {"practical", practical}} {
		w.cfg.Seed = 65 // bench's first round at --seed 1
		ds, err := dataset.Generate(w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		targets := ds.AllEIDs()
		var cells [2]string
		for i, order := range []core.ScanOrder{core.ScanShuffled, core.ScanInOrder} {
			m, err := core.New(ds, core.Options{ScanOrder: order})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Match(context.Background(), targets)
			if err != nil {
				t.Fatal(err)
			}
			cells[i] = formatCell(rep.Accuracy(ds.TruthVID), rep.VStats.Pairs)
		}
		_, obs, err := EventsFromDataset(ds, testWindowMS, w.cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		e := replayEngine(t, Config{Targets: targets, WindowMS: testWindowMS, LatenessMS: testLatenessMS, Dim: ds.Config.DescriptorDim()}, obs)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		right := 0
		for _, r := range e.Resolutions() {
			if r.VID == ds.TruthVID(r.EID) {
				right++
			}
		}
		t.Logf("%-9s | %-24s | %-24s | %.3f (%d resolutions)", w.name, cells[0], cells[1],
			float64(right)/float64(len(targets)), len(e.Resolutions()))
	}
}

func formatCell(acc float64, pairs int) string {
	return fmt.Sprintf("%.3f / %.1fk", acc, float64(pairs)/1000)
}
