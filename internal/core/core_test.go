package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/mapreduce"
	"evmatching/internal/mrjobs"
	"evmatching/internal/vfilter"
)

// testDataset generates a small ideal world once per config.
func testDataset(t *testing.T, mutate func(*dataset.Config)) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 120
	cfg.Density = 8
	cfg.NumWindows = 24
	if mutate != nil {
		mutate(&cfg)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func newMatcher(t *testing.T, ds *dataset.Dataset, opts Options) *Matcher {
	t.Helper()
	m, err := New(ds, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func truthFn(ds *dataset.Dataset) func(ids.EID) ids.VID {
	return func(e ids.EID) ids.VID { return ds.TruthVID(e) }
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("want error for nil dataset")
	}
	ds := testDataset(t, nil)
	bad := []Options{
		{Algorithm: Algorithm(99)},
		{Mode: Mode(99)},
		{Workers: -1},
		{AcceptMajority: 1.5},
		{MaxRefineRounds: -1},
		{EDPMaxScenarios: -2},
	}
	for i, opts := range bad {
		if _, err := New(ds, opts); err == nil {
			t.Errorf("options %d: want validation error", i)
		}
	}
	m := newMatcher(t, ds, Options{})
	o := m.Options()
	if o.Algorithm != AlgorithmSS || o.Mode != ModeSerial || o.AcceptMajority != 0.7 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestMatchNoTargets(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	if _, err := m.Match(context.Background(), nil); err == nil {
		t.Error("want ErrNoTargets")
	}
	if _, err := m.Match(context.Background(), []ids.EID{ids.None}); err == nil {
		t.Error("want ErrNoTargets for only-empty EIDs")
	}
}

func TestSSIdealAccuracy(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	rng := rand.New(rand.NewSource(2))
	targets := ds.SampleEIDs(60, rng)
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Accuracy(truthFn(ds)); got < 0.8 {
		t.Errorf("SS ideal accuracy = %v, want >= 0.8", got)
	}
	if rep.SelectedScenarios == 0 || rep.SelectedScenarios > ds.Store.Len() {
		t.Errorf("SelectedScenarios = %d", rep.SelectedScenarios)
	}
	if rep.AvgScenariosPerEID() <= 0 {
		t.Errorf("AvgScenariosPerEID = %v", rep.AvgScenariosPerEID())
	}
	if len(rep.Results) != len(targets) {
		t.Errorf("Results = %d, want %d", len(rep.Results), len(targets))
	}
	if rep.VStats.Extractions == 0 || rep.VStats.Comparisons == 0 {
		t.Errorf("VStats = %+v", rep.VStats)
	}
}

func TestSSSingleEID(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	e := ds.AllEIDs()[7]
	rep, err := m.Match(context.Background(), []ids.EID{e})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := rep.Results[e]
	if !ok {
		t.Fatal("no result for target")
	}
	if res.VID != ds.TruthVID(e) {
		t.Errorf("single match VID = %v, want %v", res.VID, ds.TruthVID(e))
	}
	if rep.PerEID[e] == 0 {
		t.Error("single-EID list empty (supplement failed)")
	}
}

func TestSSParallelMatchesAccuracy(t *testing.T) {
	ds := testDataset(t, nil)
	rng := rand.New(rand.NewSource(4))
	targets := ds.SampleEIDs(50, rng)
	serial := newMatcher(t, ds, Options{Mode: ModeSerial})
	parallel := newMatcher(t, ds, Options{Mode: ModeParallel, Workers: 4})
	repS, err := serial.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := parallel.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	accS, accP := repS.Accuracy(truthFn(ds)), repP.Accuracy(truthFn(ds))
	if accP < accS-0.1 {
		t.Errorf("parallel accuracy %v much worse than serial %v", accP, accS)
	}
	// The MR cross-check inside the parallel E stage would have errored on
	// any divergence; reaching here asserts Algorithm 3 equivalence.
}

func TestSSvsEDPScenarioCounts(t *testing.T) {
	// The paper's headline: SS selects far fewer unique scenarios than EDP
	// because scenarios are reused across EIDs (Fig. 5).
	ds := testDataset(t, func(c *dataset.Config) {
		c.NumPersons = 150
		c.Density = 25
	})
	rng := rand.New(rand.NewSource(6))
	targets := ds.SampleEIDs(100, rng)
	ss := newMatcher(t, ds, Options{Algorithm: AlgorithmSS})
	edp := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP})
	repSS, err := ss.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	repEDP, err := edp.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if repSS.SelectedScenarios >= repEDP.SelectedScenarios {
		t.Errorf("SS selected %d unique scenarios, EDP %d; SS should select fewer",
			repSS.SelectedScenarios, repEDP.SelectedScenarios)
	}
	// EDP re-processes scenarios per EID; SS extracts each at most once.
	if repSS.VStats.ScenariosProcessed > repSS.SelectedScenarios {
		t.Errorf("SS processed %d scenarios but selected %d (cache broken)",
			repSS.VStats.ScenariosProcessed, repSS.SelectedScenarios)
	}
	if repEDP.VStats.ScenariosProcessed <= repEDP.SelectedScenarios {
		t.Errorf("EDP processed %d <= selected %d; expected duplicate processing",
			repEDP.VStats.ScenariosProcessed, repEDP.SelectedScenarios)
	}
}

func TestEDPAccuracy(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP})
	rng := rand.New(rand.NewSource(8))
	targets := ds.SampleEIDs(40, rng)
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Accuracy(truthFn(ds)); got < 0.75 {
		t.Errorf("EDP accuracy = %v, want >= 0.75", got)
	}
	if rep.RefineRounds != 0 {
		t.Errorf("EDP refined %d rounds; EDP never refines", rep.RefineRounds)
	}
}

func TestEDPParallelMatchesSerial(t *testing.T) {
	ds := testDataset(t, nil)
	rng := rand.New(rand.NewSource(10))
	targets := ds.SampleEIDs(30, rng)
	serial := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP, Mode: ModeSerial})
	parallel := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP, Mode: ModeParallel, Workers: 4})
	repS, err := serial.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := parallel.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range targets {
		if repS.Results[e].VID != repP.Results[e].VID {
			t.Errorf("EID %s: serial %v vs parallel %v", e, repS.Results[e].VID, repP.Results[e].VID)
		}
	}
	if repS.SelectedScenarios != repP.SelectedScenarios {
		t.Errorf("selected scenarios differ: %d vs %d", repS.SelectedScenarios, repP.SelectedScenarios)
	}
}

func TestMatchAllUniversal(t *testing.T) {
	ds := testDataset(t, func(c *dataset.Config) {
		c.NumPersons = 60
		c.Density = 12
	})
	m := newMatcher(t, ds, Options{})
	rep, err := m.MatchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 60 {
		t.Fatalf("universal targets = %d", len(rep.Targets))
	}
	if got := rep.Accuracy(truthFn(ds)); got < 0.8 {
		t.Errorf("universal accuracy = %v", got)
	}
}

func TestPracticalSettingWithRefining(t *testing.T) {
	ds := testDataset(t, func(c *dataset.Config) {
		*c = c.Practical()
		c.NumPersons = 120
		c.Density = 15
		c.NumWindows = 24
		c.VIDMissingRate = 0.05
		c.EIDMissingRate = 0.1
	})
	m := newMatcher(t, ds, Options{MaxRefineRounds: 3})
	rng := rand.New(rand.NewSource(14))
	targets := ds.SampleEIDs(50, rng)
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Accuracy(truthFn(ds)); got < 0.6 {
		t.Errorf("practical accuracy = %v, want >= 0.6", got)
	}
}

func TestRefiningImprovesOrMatchesVIDMissing(t *testing.T) {
	ds := testDataset(t, func(c *dataset.Config) {
		c.VIDMissingRate = 0.1
	})
	rng := rand.New(rand.NewSource(16))
	targets := ds.SampleEIDs(50, rng)
	// A near-zero acceptance threshold effectively disables refining
	// (everything is acceptable on round one); compare against 3 rounds.
	oneShot := newMatcher(t, ds, Options{AcceptMajority: 0.01})
	repRefine, err := newMatcher(t, ds, Options{MaxRefineRounds: 3}).Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	repOne, err := oneShot.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	accRefine := repRefine.Accuracy(truthFn(ds))
	accOne := repOne.Accuracy(truthFn(ds))
	if accRefine < accOne-0.05 {
		t.Errorf("refining accuracy %v worse than one-shot %v", accRefine, accOne)
	}
}

func TestContextCancellation(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Match(ctx, ds.AllEIDs()[:10]); err == nil {
		t.Error("want context error")
	}
	edp := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP})
	if _, err := edp.Match(ctx, ds.AllEIDs()[:10]); err == nil {
		t.Error("want context error from EDP")
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &Report{
		Targets: []ids.EID{"a", "b", "c"},
		Results: map[ids.EID]vfilter.Result{
			"a": {VID: "V1"},
			"b": {VID: "V2"},
			"c": {VID: ids.NoVID},
		},
		PerEID: map[ids.EID]int{"a": 3, "b": 5, "c": 1},
	}
	truth := func(e ids.EID) ids.VID {
		switch e {
		case "a":
			return "V1"
		case "b":
			return "V9"
		case "c":
			return "V3"
		}
		return ids.NoVID
	}
	if got := rep.Accuracy(truth); got != 1.0/3.0 {
		t.Errorf("Accuracy = %v, want 1/3", got)
	}
	if got := rep.AvgScenariosPerEID(); got != 3 {
		t.Errorf("AvgScenariosPerEID = %v, want 3", got)
	}
	if got := rep.Matched(); got != 2 {
		t.Errorf("Matched = %d, want 2", got)
	}
	empty := &Report{}
	if empty.Accuracy(truth) != 0 || empty.AvgScenariosPerEID() != 0 {
		t.Error("empty report helpers should return 0")
	}
}

func TestAlgorithmModeStrings(t *testing.T) {
	if AlgorithmSS.String() != "SS" || AlgorithmEDP.String() != "EDP" || Algorithm(0).String() != "invalid" {
		t.Error("Algorithm.String wrong")
	}
	if ModeSerial.String() != "serial" || ModeParallel.String() != "parallel" || Mode(0).String() != "invalid" {
		t.Error("Mode.String wrong")
	}
}

func TestDedupEIDs(t *testing.T) {
	got := dedupEIDs([]ids.EID{"b", "a", "b", ids.None, "a"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("dedupEIDs = %v", got)
	}
}

func TestMatchDeterministic(t *testing.T) {
	ds := testDataset(t, nil)
	rng := rand.New(rand.NewSource(22))
	targets := ds.SampleEIDs(30, rng)
	m1 := newMatcher(t, ds, Options{Seed: 5})
	m2 := newMatcher(t, ds, Options{Seed: 5})
	r1, err := m1.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range targets {
		if r1.Results[e].VID != r2.Results[e].VID {
			t.Errorf("EID %s differs across identical runs", e)
		}
	}
	if r1.SelectedScenarios != r2.SelectedScenarios {
		t.Errorf("SelectedScenarios differ: %d vs %d", r1.SelectedScenarios, r2.SelectedScenarios)
	}
}

func TestMatchUnknownEIDs(t *testing.T) {
	// Unknown EIDs are permitted: they simply cannot be matched.
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	known := ds.AllEIDs()[0]
	rep, err := m.Match(context.Background(), []ids.EID{known, "de:ad:be:ef:00:01"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[known].VID == ids.NoVID {
		t.Error("known EID failed to match")
	}
	if got := rep.Results["de:ad:be:ef:00:01"].VID; got != ids.NoVID {
		t.Errorf("unknown EID matched %v", got)
	}
}

func TestExecutorOverride(t *testing.T) {
	// A custom executor (here: the serial engine) can drive parallel mode.
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{
		Mode:     ModeParallel,
		Executor: mapreduce.SerialExecutor{},
	})
	rng := rand.New(rand.NewSource(40))
	targets := ds.SampleEIDs(20, rng)
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Accuracy(truthFn(ds)); got < 0.8 {
		t.Errorf("accuracy with overridden executor = %v", got)
	}
}

func TestResultMarginSurfacesInReport(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	rng := rand.New(rand.NewSource(41))
	targets := ds.SampleEIDs(15, rng)
	rep, err := m.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range targets {
		res := rep.Results[e]
		if res.VID == ids.NoVID {
			continue
		}
		if res.Margin < 1 && res.RunnerUp != ids.NoVID {
			t.Errorf("EID %s: winner margin %v < 1 with runner-up %v", e, res.Margin, res.RunnerUp)
		}
	}
}

func TestEDPParallelCancellationNoDeadlock(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{Algorithm: AlgorithmEDP, Mode: ModeParallel, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the V stage starts
	doneCh := make(chan error, 1)
	go func() {
		_, err := m.Match(ctx, ds.AllEIDs()[:30])
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if err == nil {
			t.Error("want context error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("EDP parallel match deadlocked on cancellation")
	}
}

func TestExplain(t *testing.T) {
	ds := testDataset(t, nil)
	m := newMatcher(t, ds, Options{})
	e := ds.AllEIDs()[4]
	var sb strings.Builder
	if err := m.Explain(context.Background(), e, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		string(e), "E stage:", "V stage votes:", "verdict:", "ground truth:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if err := m.Explain(context.Background(), ids.None, &sb); err == nil {
		t.Error("want error for empty EID")
	}
}

// TestSerialParallelStatsAgreement pins the exactly-once extraction
// accounting under V-stage batching: however the scenario list is chunked
// into batch tasks, each distinct scenario is extracted once, so the serial
// path and every parallel worker count — each sizing its batches differently
// (mrjobs.BatchFor) — agree on scenarios processed and extractions
// performed. Comparisons are pinned across parallel runs only —
// serial legitimately performs fewer because its exclusions accrue from one
// target to the next while every parallel Match scores against the exclusion
// the stage started with (and how many fewer varies a little above
// GOMAXPROCS 1: see vfilter.Stats).
func TestSerialParallelStatsAgreement(t *testing.T) {
	ds := testDataset(t, nil)
	targets := ds.SampleEIDs(30, rand.New(rand.NewSource(7)))
	serial := newMatcher(t, ds, Options{Mode: ModeSerial})
	repS, err := serial.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	var first *Report
	batches := make(map[int]bool)
	for _, workers := range []int{1, 2, 4, 8} {
		if b := mrjobs.BatchFor(len(targets), workers); batches[b] {
			t.Fatalf("Workers=%d repeats comparison batch size %d; the sweep would not vary the chunking", workers, b)
		} else {
			batches[b] = true
		}
		parallel := newMatcher(t, ds, Options{Mode: ModeParallel, Workers: workers})
		repP, err := parallel.Match(context.Background(), targets)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if repP.VStats.ScenariosProcessed != repS.VStats.ScenariosProcessed {
			t.Errorf("Workers=%d: ScenariosProcessed = %d, serial %d",
				workers, repP.VStats.ScenariosProcessed, repS.VStats.ScenariosProcessed)
		}
		if repP.VStats.Extractions != repS.VStats.Extractions {
			t.Errorf("Workers=%d: Extractions = %d, serial %d",
				workers, repP.VStats.Extractions, repS.VStats.Extractions)
		}
		if first == nil {
			first = repP
			continue
		}
		if repP.VStats != first.VStats {
			t.Errorf("Workers=%d: VStats %+v differ from first parallel run %+v",
				workers, repP.VStats, first.VStats)
		}
		if repP.Fingerprint() != first.Fingerprint() {
			t.Errorf("Workers=%d: fingerprint diverged from first parallel run", workers)
		}
	}
}
