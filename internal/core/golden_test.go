package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/vfilter"
)

// goldenConfig is one pinned conformance point: a seeded dataset and matcher
// options whose Report.Fingerprint() must never change across perf refactors.
type goldenConfig struct {
	name      string
	practical bool
	opts      Options
	// sha256 of the pre-optimization Report.Fingerprint(), captured before
	// the flat-kernel / bitset-partition rewrite. A mismatch means a change
	// altered match *results*, not just speed.
	want string
}

func goldenDataset(t *testing.T, practical bool) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 8
	cfg.NumWindows = 16
	if practical {
		cfg = cfg.Practical()
		cfg.EIDMissingRate = 0.1
		cfg.VIDMissingRate = 0.05
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func goldenFingerprint(t *testing.T, practical bool, opts Options) string {
	t.Helper()
	ds := goldenDataset(t, practical)
	m := newMatcher(t, ds, opts)
	rep, err := m.Match(context.Background(), ds.AllEIDs()[:20])
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	sum := sha256.Sum256([]byte(rep.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenFingerprints pins the exact match results on seeded conformance
// datasets: serial, parallel, and practical vague-zone modes must keep
// producing byte-identical Report.Fingerprint() output across performance
// rewrites of the kernels, the V-stage hot path, and the split-set
// representation.
func TestGoldenFingerprints(t *testing.T) {
	cases := []goldenConfig{
		{"ss-serial-ideal", false, Options{Algorithm: AlgorithmSS, Mode: ModeSerial, Seed: 7},
			"db3aabf5ee569d192a4de8c97af70d9571d72912c8a116d000c5440cfbe2b7ac"},
		{"ss-parallel-ideal", false, Options{Algorithm: AlgorithmSS, Mode: ModeParallel, Seed: 7, Workers: 4},
			"5785af5ac2d56acee24b53cc53b50e026fc6bc2b22d2af88e61181cdcf37e180"},
		{"ss-serial-practical", true, Options{Algorithm: AlgorithmSS, Mode: ModeSerial, Seed: 7},
			"a532daadd84adea4d06876eaa1650f27a5767443d21b8f5ed5b4134f80867c50"},
		{"ss-parallel-practical", true, Options{Algorithm: AlgorithmSS, Mode: ModeParallel, Seed: 7, Workers: 4},
			"f0987c73c4268b40f9c2e00e0bf33a2e96d75526b0b568c0fad098665cd8700b"},
		{"edp-serial-ideal", false, Options{Algorithm: AlgorithmEDP, Mode: ModeSerial, Seed: 7},
			"52c1d35dcb12a1c02a984f2617889e45e865d20d653267f6a681c7b767b5c9bf"},
		{"edp-serial-practical", true, Options{Algorithm: AlgorithmEDP, Mode: ModeSerial, Seed: 7},
			"0c46bf94c89f9fca671b90ddef1da076e91eb238296e7d1f6af5ee74482597e0"},
	}
	for _, gc := range cases {
		t.Run(gc.name, func(t *testing.T) {
			if got := goldenFingerprint(t, gc.practical, gc.opts); got != gc.want {
				t.Errorf("fingerprint hash = %s, want %s (match results changed)", got, gc.want)
			}
		})
	}
}

// TestGoldenFingerprintCluster runs the ss-parallel-ideal conformance point
// with the MapReduce stages dispatched to a real coordinator/worker cluster
// over RPC: the executor must not change results, so the fingerprint hash is
// the in-process parallel one.
func TestGoldenFingerprintCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed conformance skipped in -short mode")
	}
	exec := startCluster(t, 3)
	got := goldenFingerprint(t, false, Options{
		Algorithm: AlgorithmSS,
		Mode:      ModeParallel,
		Seed:      7,
		Executor:  exec,
	})
	const want = "5785af5ac2d56acee24b53cc53b50e026fc6bc2b22d2af88e61181cdcf37e180"
	if got != want {
		t.Errorf("cluster fingerprint hash = %s, want %s (executor changed match results)", got, want)
	}
}

// TestGoldenVStatsPairs pins the V stage's work counts on the paper world
// (bench's batch-paper world at its first seed). Serial SS scores targets on
// GOMAXPROCS goroutines, some against an exclusion that is not yet final,
// and reads part of its similarities from the filter's memo; the VStats
// count what the decided answers rest on, so neither the worker count nor
// the memo may move them, nor the scenarios selected or the refine rounds.
// What the kernel evaluated is pinned at one proc only: above it the
// speculative scoring adds to it. CI runs it at -cpu 1,2,8.
func TestGoldenVStatsPairs(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.NumWindows = 32
	cfg.Seed = 65
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := newMatcher(t, ds, Options{Mode: ModeSerial}).Match(context.Background(), ds.AllEIDs())
	if err != nil {
		t.Fatal(err)
	}
	want := vfilter.Stats{ScenariosProcessed: 140, Extractions: 7458, Comparisons: 1611440, Pairs: 23832}
	if rep.VStats != want {
		t.Errorf("VStats = %+v, want %+v", rep.VStats, want)
	}
	if rep.SelectedScenarios != 140 || rep.RefineRounds != 3 {
		t.Errorf("SelectedScenarios, RefineRounds = %d, %d; want 140, 3", rep.SelectedScenarios, rep.RefineRounds)
	}
	if runtime.GOMAXPROCS(0) == 1 && rep.VMemo.KernelPairs != 16687 {
		t.Errorf("VMemo.KernelPairs = %d at one proc, want 16687", rep.VMemo.KernelPairs)
	}
}
