// Package scaletest holds the scale gates that need a 100k-EID world: the
// blocking index's asymptote (DESIGN.md §13), the out-of-core tier's
// bit-identity at scale (§14), and the price of a one-shot sparse match.
// It has no non-test file; CI's scale-smoke job runs it under a wall-clock
// budget, apart from the race tier, and with -tags scaletiming.
package scaletest

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

// sparseTargets is the target-sample size the scale smoke tests share.
const sparseTargets = 32

// The scale worlds are generated once per process: the sparse-city 100k
// preset alone takes seconds, and every test and benchmark wants the
// identical world.
var (
	sparseOnce sync.Once
	sparseDS   *dataset.Dataset
	sparseErr  error

	denseOnce sync.Once
	denseDS   *dataset.Dataset
	denseErr  error
)

// sparseWorld returns the shared sparse-city 100k-EID world — the regime the
// blocking index targets, where a target co-occurs with a vanishing fraction
// of the population.
func sparseWorld() (*dataset.Dataset, error) {
	sparseOnce.Do(func() {
		cfg, err := dataset.ScalePreset(dataset.PresetSparseCity)
		if err != nil {
			sparseErr = err
			return
		}
		sparseDS, sparseErr = dataset.Generate(cfg)
	})
	return sparseDS, sparseErr
}

// denseWorld returns the shared dense worst case: crowded cells and a
// universal target set, so nearly every scenario holds a live target and
// pruning almost never fires — the configuration where blocking must cost
// nearly nothing. (The dense-core 1M preset itself needs ~a GB; this is its
// CI-sized proxy with the same saturation property.)
func denseWorld() (*dataset.Dataset, error) {
	denseOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.NumPersons = 2000
		cfg.Density = 100
		cfg.NumWindows = 32
		cfg.FeatureDim = 16
		denseDS, denseErr = dataset.Generate(cfg)
	})
	return denseDS, denseErr
}

// scalePair matches a scale world with and without the posting index and
// returns a warm report of each plus the blocked/exhaustive E-stage time
// ratio. Both matchers are warmed with one match, which pays cold caches,
// and then matched in pairs, the order within a pair swapped every round,
// for at least nine pairs and until each side has spent minE in its E
// stage; the ratio is the median of the per-pair ratios. The dense E stage
// is ~9 ms, shorter than one garbage collection over a scale world or a
// neighbour's burst on a shared runner, and pairing each blocked match with
// the exhaustive one next to it is what cancels those (the ratio of the two
// minima, tried first, swung 0.76–1.26 on identical code); swapping the
// order cancels whatever the first match of a pair leaves the second, and
// the floor on E time keeps a handful of outliers from deciding the median
// (nine pairs read 0.80–1.17 over 18 runs).
func scalePair(t *testing.T, ds *dataset.Dataset, numTargets int, minE time.Duration) (blocked, exhaustive *core.Report, ratio float64) {
	t.Helper()
	targets := ds.AllEIDs()
	if numTargets > 0 {
		targets = ds.SampleEIDs(numTargets, rand.New(rand.NewSource(5)))
	}
	var ms [2]*core.Matcher
	for i := range ms {
		m, err := core.New(ds, core.Options{
			Algorithm:       core.AlgorithmSS,
			Mode:            core.ModeSerial,
			WorkFactor:      1,
			DisableBlocking: i == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Match(context.Background(), targets); err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	var (
		reps   [2]*core.Report
		spent  [2]time.Duration
		ratios []float64
	)
	for round := 0; len(ratios) < 9 || min(spent[0], spent[1]) < minE; round++ {
		for k := range ms {
			i := (k + round) % 2
			rep, err := ms[i].Match(context.Background(), targets)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
			spent[i] += rep.ETime
		}
		ratios = append(ratios, float64(reps[0].ETime)/float64(reps[1].ETime))
	}
	sort.Float64s(ratios)
	t.Logf("%d pairs, E time blocked %v, exhaustive %v", len(ratios), spent[0], spent[1])
	return reps[0], reps[1], ratios[len(ratios)/2]
}

// TestScaleSmoke is the scale gate: the sparse-city 100k preset runs end to
// end — generation with its postings, blocked and exhaustive matches — and
// the asymptote claim of DESIGN.md §13 is asserted directly, in counts
// first. On the sparse world the blocked split must touch at most a fifth of
// the scenarios the exhaustive one probes (measured: 97 candidates of
// 46 365) while staying bit-identical; on the saturated dense world, where
// the index saves little, its own work — a live-target probe per scenario of
// every window the split reached — must stay within 4× the probes it saves
// (measured: 380 against 127). Those counts are exact, so under go test
// ./... the verdict does not depend on what else the box is running.
//
// The wall-clock ratios the counts stand for — sparse blocked E stage ≥2.5×
// faster than the exhaustive one (measured ≥5×), dense ≤1.15× of it
// (measured blocked ≤ exhaustive) — are asserted only with -tags scaletiming,
// which CI's scale-smoke job passes when it runs this package alone
// (timing_test.go). It runs in -short mode by design.
func TestScaleSmoke(t *testing.T) {
	t.Run("sparse-100k", func(t *testing.T) {
		ds, err := sparseWorld()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ds.AllEIDs()); n < 50_000 {
			t.Fatalf("sparse preset produced only %d EIDs; not a scale world", n)
		}
		start := time.Now()
		blocked, exhaustive, ratio := scalePair(t, ds, sparseTargets, 0)
		t.Logf("sparse-100k: blocked E=%v exhaustive E=%v, median ratio %.4f (matches took %v)",
			blocked.ETime, exhaustive.ETime, ratio, time.Since(start))
		probed := blocked.BlockCandidates + blocked.BlockPruned
		t.Logf("sparse-100k: %d candidates, %d pruned", blocked.BlockCandidates, blocked.BlockPruned)

		if got, want := blocked.Fingerprint(), exhaustive.Fingerprint(); got != want {
			t.Fatalf("blocked fingerprint %s != exhaustive %s", got, want)
		}
		if blocked.BlockPruned == 0 {
			t.Error("sparse world pruned nothing; blocking index inert")
		}
		if 5*blocked.BlockCandidates > probed {
			t.Errorf("blocked split touched %d scenarios of %d probed, want <= 1/5", blocked.BlockCandidates, probed)
		}
		if assertTiming && ratio > 1/2.5 {
			t.Errorf("sparse split-stage speedup %.1fx, want >= 2.5x (measured >= 5x)", 1/ratio)
		}
	})

	t.Run("dense-bounded", func(t *testing.T) {
		ds, err := denseWorld()
		if err != nil {
			t.Fatal(err)
		}
		// Its ratio sits near 1 with the 1.15 bound close by, so where it is
		// asserted it is timed over at least half a second of E stage a side.
		minE := time.Duration(0)
		if assertTiming {
			minE = 500 * time.Millisecond
		}
		blocked, exhaustive, ratio := scalePair(t, ds, 0, minE)
		t.Logf("dense: blocked E=%v exhaustive E=%v, median ratio %.2f", blocked.ETime, exhaustive.ETime, ratio)
		probed := blocked.BlockCandidates + blocked.BlockPruned
		t.Logf("dense: %d candidates, %d pruned", blocked.BlockCandidates, blocked.BlockPruned)

		if got, want := blocked.Fingerprint(), exhaustive.Fingerprint(); got != want {
			t.Fatalf("blocked fingerprint %s != exhaustive %s", got, want)
		}
		if probed == 0 {
			t.Error("dense world probed no scenario through the index; blocking index inert")
		}
		if probed > 4*blocked.BlockPruned {
			t.Errorf("index work of %d probes exceeds 4x the %d probes it saved", probed, blocked.BlockPruned)
		}
		if assertTiming && ratio > 1.15 {
			t.Errorf("dense-world blocked E stage is %.2fx the exhaustive one, want <= 1.15x", ratio)
		}
	})
}

// TestScaleSmokeSpill is the out-of-core CI gate (DESIGN.md §14): on both
// scale worlds, the parallel batch match and the stream replay run under a
// memory budget far below the working set — shuffle buckets spill to sorted
// runs, sealed windows evict to the blob log — and still land on exactly the
// in-memory fingerprint. Spilling must be *observable* (nonzero counters),
// or a silently inert budget would pass the equality check vacuously.
func TestScaleSmokeSpill(t *testing.T) {
	worlds := []struct {
		name       string
		world      func() (*dataset.Dataset, error)
		numTargets int
		budget     int64
	}{
		// The blocked sparse E stage prunes its shuffle down to a few KB, so
		// its budget must be tighter than the dense world's to force runs —
		// both are still vanishingly small next to the worlds' working sets.
		{"sparse-100k", sparseWorld, sparseTargets, 1 << 10},
		{"dense", denseWorld, 0, 64 << 10},
	}

	t.Run("batch", func(t *testing.T) {
		for _, tc := range worlds {
			t.Run(tc.name, func(t *testing.T) {
				ds, err := tc.world()
				if err != nil {
					t.Fatal(err)
				}
				targets := ds.AllEIDs()
				if tc.numTargets > 0 {
					targets = ds.SampleEIDs(tc.numTargets, rand.New(rand.NewSource(5)))
				}
				match := func(budget int64) *core.Report {
					t.Helper()
					opts := core.Options{
						Algorithm: core.AlgorithmSS,
						Mode:      core.ModeParallel,
						Workers:   4,
						MemBudget: budget,
					}
					if budget > 0 {
						opts.SpillDir = t.TempDir()
					}
					m, err := core.New(ds, opts)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := m.Match(context.Background(), targets)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				inMem := match(0)
				spilled := match(tc.budget)
				if got, want := spilled.Fingerprint(), inMem.Fingerprint(); got != want {
					t.Fatalf("budgeted fingerprint %s != in-memory %s", got, want)
				}
				if spilled.Spill.RunsWritten == 0 || spilled.Spill.BytesSpilled == 0 {
					t.Errorf("budget forced no shuffle spill: %+v", spilled.Spill)
				}
				if spilled.Spill.RunsMerged < spilled.Spill.RunsWritten {
					t.Errorf("wrote %d runs but merged only %d", spilled.Spill.RunsWritten, spilled.Spill.RunsMerged)
				}
				t.Logf("%s batch: %+v", tc.name, spilled.Spill)
			})
		}
	})

	t.Run("stream", func(t *testing.T) {
		for _, tc := range worlds {
			t.Run(tc.name, func(t *testing.T) {
				ds, err := tc.world()
				if err != nil {
					t.Fatal(err)
				}
				_, obs, err := stream.EventsFromDataset(ds, 1_000, 5)
				if err != nil {
					t.Fatal(err)
				}
				scfg := stream.Config{
					Targets:    ds.SampleEIDs(sparseTargets, rand.New(rand.NewSource(5))),
					WindowMS:   1_000,
					LatenessMS: 250,
					Dim:        ds.Config.DescriptorDim(),
				}
				replay := func(budget int64) (string, spill.Snapshot) {
					t.Helper()
					cfg := scfg
					cfg.MemBudget = budget
					if budget > 0 {
						cfg.SpillDir = t.TempDir()
					}
					e, err := stream.NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i, o := range obs {
						if _, err := e.Ingest(o); err != nil {
							t.Fatalf("Ingest %d: %v", i, err)
						}
					}
					rep, err := e.Finalize(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return rep.Fingerprint(), e.SpillStats()
				}
				// The resident working set is the sealed V payloads: pixel
				// patches plus the fixed per-detection overhead the engine
				// itself charges. Budget a quarter of it.
				var working int64
				for _, o := range obs {
					if o.Patch != nil {
						working += int64(len(o.Patch.Pix)) + 64
					}
				}
				inMem, _ := replay(0)
				spilledFP, snap := replay(working / 4)
				if spilledFP != inMem {
					t.Fatalf("budgeted replay fingerprint %s != in-memory %s", spilledFP, inMem)
				}
				if snap.Evictions == 0 || snap.BytesSpilled == 0 || snap.Reloads == 0 {
					t.Errorf("budget %d (working set %d) forced no spill activity: %+v", working/4, working, snap)
				}
				t.Logf("%s stream: working set %d, %+v", tc.name, working, snap)
			})
		}
	})
}

// BenchmarkMatchSSSparse times core.New plus Match of 2000 targets over the
// sparse world — bench/'s batch-sparse shape — as a one-shot match takes it:
// a new matcher over a store whose postings Add wrote (DESIGN.md §13). An
// untimed match first warms the process's caches.
func BenchmarkMatchSSSparse(b *testing.B) {
	b.Run("new-matcher", func(b *testing.B) {
		ds, err := sparseWorld()
		if err != nil {
			b.Fatal(err)
		}
		targets := ds.SampleEIDs(2000, rand.New(rand.NewSource(5)))
		opts := core.Options{Algorithm: core.AlgorithmSS, Mode: core.ModeSerial, WorkFactor: 1}
		match := func() *core.Report {
			m, err := core.New(ds, opts)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := m.Match(context.Background(), targets)
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}
		match()
		b.ReportAllocs()
		b.ResetTimer()
		var splitNS int64
		for i := 0; i < b.N; i++ {
			splitNS += match().ETime.Nanoseconds()
		}
		b.StopTimer()
		b.ReportMetric(float64(splitNS)/float64(b.N)/1e6, "split_ms")
	})
}
