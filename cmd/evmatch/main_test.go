package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"evmatching"
)

// writeDataset generates a small dataset file for the tests.
func writeDataset(t *testing.T) string {
	t.Helper()
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 50
	cfg.Density = 10
	cfg.NumWindows = 10
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.gob")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSampleMatch(t *testing.T) {
	path := writeDataset(t)
	if err := run([]string{"-data", path, "-n", "10"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllUniversalVerbose(t *testing.T) {
	path := writeDataset(t)
	if err := run([]string{"-data", path, "-all", "-v"}); err != nil {
		t.Fatalf("run -all: %v", err)
	}
}

func TestRunExplicitEIDsParallelEDP(t *testing.T) {
	path := writeDataset(t)
	ds, err := evmatching.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	eids := ds.AllEIDs()
	list := string(eids[0]) + "," + string(eids[1])
	if err := run([]string{
		"-data", path, "-eids", list,
		"-algorithm", "edp", "-mode", "parallel", "-workers", "2",
	}); err != nil {
		t.Fatalf("run -eids: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	path := writeDataset(t)
	if err := run(nil); err == nil {
		t.Error("want error for missing -data")
	}
	if err := run([]string{"-data", path}); err == nil {
		t.Error("want error for missing target selection")
	}
	if err := run([]string{"-data", path, "-n", "5", "-algorithm", "magic"}); err == nil {
		t.Error("want error for unknown algorithm")
	}
	if err := run([]string{"-data", path, "-n", "5", "-mode", "warp"}); err == nil {
		t.Error("want error for unknown mode")
	}
	if err := run([]string{"-data", filepath.Join(t.TempDir(), "missing.gob"), "-n", "5"}); err == nil {
		t.Error("want error for missing dataset file")
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeDataset(t)
	// Capture stdout.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-data", path, "-n", "5", "-json"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	var out struct {
		Algorithm string `json:"algorithm"`
		Targets   int    `json:"targets"`
		Matches   []struct {
			EID     string `json:"eid"`
			Correct *bool  `json:"correct"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Algorithm != "SS" || out.Targets != 5 || len(out.Matches) != 5 {
		t.Errorf("json report = %+v", out)
	}
	for _, m := range out.Matches {
		if m.Correct == nil {
			t.Errorf("match %s missing truth verdict", m.EID)
		}
	}
}

func TestRunExplain(t *testing.T) {
	path := writeDataset(t)
	ds, err := evmatching.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", path, "-explain", string(ds.AllEIDs()[0])}); err != nil {
		t.Fatalf("run -explain: %v", err)
	}
}

// TestEmitJSONGolden pins the -json byte output on a hand-built report:
// float64 millisecond stage times (previously truncated to whole ms), the
// runner-up and margin fields (previously dropped), a lone candidate whose
// infinite margin must be omitted rather than break the encoder, and a
// target without ground truth carrying no verdict.
func TestEmitJSONGolden(t *testing.T) {
	rep := &evmatching.Report{
		Algorithm: evmatching.AlgorithmSS,
		Mode:      evmatching.ModeParallel,
		Targets:   []evmatching.EID{"aa:aa", "bb:bb", "cc:cc"},
		Results: map[evmatching.EID]evmatching.MatchResult{
			"aa:aa": {VID: "V00001", Probability: 0.875, MajorityFrac: 1,
				Acceptable: true, RunnerUp: "V00002", Margin: 2.5},
			"bb:bb": {VID: "V00003", Probability: 0.5, MajorityFrac: 0.75,
				Acceptable: true, Margin: math.Inf(1)},
			"cc:cc": {VID: "V00004", Probability: 0.25, MajorityFrac: 0.6,
				RunnerUp: "V00005", Margin: 1.25},
		},
		PerEID:              map[evmatching.EID]int{"aa:aa": 3, "bb:bb": 2, "cc:cc": 3},
		SelectedScenarios:   6,
		ETime:               1500 * time.Microsecond,
		VTime:               2250 * time.Microsecond,
		RefineRounds:        1,
		BlockCandidates:     12,
		BlockPruned:         36,
		BlockMaterialised:   5,
		PrefetchedScenarios: 4,
	}
	truth := func(e evmatching.EID) evmatching.VID {
		switch e {
		case "aa:aa":
			return "V00001" // matched correctly
		case "cc:cc":
			return "V00009" // matched incorrectly
		}
		return evmatching.NoVID // bb:bb has no ground truth
	}
	var buf bytes.Buffer
	if err := emitJSON(&buf, truth, rep); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "algorithm": "SS",
  "mode": "parallel",
  "targets": 3,
  "accuracy": 0.5,
  "selectedScenarios": 6,
  "perEIDAvg": 2.6666666666666665,
  "eTimeMillis": 1.5,
  "vTimeMillis": 2.25,
  "refineRounds": 1,
  "blockCandidates": 12,
  "blockPruned": 36,
  "blockPruneRatio": 0.75,
  "blockMaterialised": 5,
  "prefetchedScenarios": 4,
  "matches": [
    {
      "eid": "aa:aa",
      "vid": "V00001",
      "probability": 0.875,
      "majorityFrac": 1,
      "acceptable": true,
      "runnerUp": "V00002",
      "margin": 2.5,
      "correct": true
    },
    {
      "eid": "bb:bb",
      "vid": "V00003",
      "probability": 0.5,
      "majorityFrac": 0.75,
      "acceptable": true
    },
    {
      "eid": "cc:cc",
      "vid": "V00004",
      "probability": 0.25,
      "majorityFrac": 0.6,
      "acceptable": false,
      "runnerUp": "V00005",
      "margin": 1.25,
      "correct": false
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("emitJSON output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
