// Command evmatch runs EV-Matching over a dataset file produced by evgen:
// it matches the requested EIDs (a sample, an explicit list, or the
// universal set) to their VIDs and reports accuracy and cost metrics.
//
// Usage:
//
//	evmatch -data world.bin [-n 100 | -eids aa:bb:...,... | -all]
//	        [-algorithm ss|edp] [-mode serial|parallel] [-workers 0] [-seed 1]
//	        [-v] [-json] [-explain eid]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"evmatching"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evmatch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evmatch", flag.ContinueOnError)
	var (
		data     = fs.String("data", "", "dataset file from evgen (required)")
		n        = fs.Int("n", 0, "match a random sample of n EIDs")
		eidList  = fs.String("eids", "", "comma-separated explicit EIDs to match")
		all      = fs.Bool("all", false, "universal matching: label every EID")
		algoName = fs.String("algorithm", "ss", "matching algorithm: ss or edp")
		modeName = fs.String("mode", "serial", "execution mode: serial or parallel")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed     = fs.Int64("seed", 1, "matcher seed")
		verbose  = fs.Bool("v", false, "print every matched pair")
		jsonOut  = fs.Bool("json", false, "emit the full report as JSON instead of text")
		explain  = fs.String("explain", "", "trace the matching decision for one EID and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return errors.New("-data is required")
	}
	ds, err := evmatching.LoadDataset(*data)
	if err != nil {
		return err
	}

	if *explain != "" {
		m, err := evmatching.NewMatcher(ds, evmatching.Options{Seed: *seed, Workers: *workers})
		if err != nil {
			return err
		}
		return m.Explain(context.Background(), evmatching.EID(*explain), os.Stdout)
	}

	var targets []evmatching.EID
	switch {
	case *all:
		targets = ds.AllEIDs()
	case *eidList != "":
		for _, s := range strings.Split(*eidList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				targets = append(targets, evmatching.EID(s))
			}
		}
	case *n > 0:
		targets = ds.SampleEIDs(*n, rand.New(rand.NewSource(*seed)))
	default:
		return errors.New("one of -n, -eids, or -all is required")
	}

	opts := evmatching.Options{Seed: *seed, Workers: *workers}
	switch *algoName {
	case "ss":
		opts.Algorithm = evmatching.AlgorithmSS
	case "edp":
		opts.Algorithm = evmatching.AlgorithmEDP
	default:
		return fmt.Errorf("unknown algorithm %q", *algoName)
	}
	switch *modeName {
	case "serial":
		opts.Mode = evmatching.ModeSerial
	case "parallel":
		opts.Mode = evmatching.ModeParallel
	default:
		return fmt.Errorf("unknown mode %q", *modeName)
	}

	rep, err := evmatching.Match(context.Background(), ds, opts, targets)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON(os.Stdout, ds.TruthVID, rep)
	}
	if *verbose {
		sorted := append([]evmatching.EID(nil), rep.Targets...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, e := range sorted {
			res := rep.Results[e]
			mark := " "
			if truth := ds.TruthVID(e); truth != evmatching.NoVID && truth == res.VID {
				mark = "*"
			}
			fmt.Printf("%s %-17s -> %-8s p=%.3f vote=%.2f\n", mark, e, res.VID, res.Probability, res.MajorityFrac)
		}
	}
	fmt.Printf("algorithm=%s mode=%s targets=%d matched=%d accuracy=%.2f%%\n",
		rep.Algorithm, rep.Mode, len(rep.Targets), rep.Matched(),
		rep.Accuracy(ds.TruthVID)*100)
	fmt.Printf("selected scenarios=%d (%.2f per EID)  E=%v V=%v total=%v refine=%d prefetched=%d\n",
		rep.SelectedScenarios, rep.AvgScenariosPerEID(),
		rep.ETime, rep.VTime, rep.TotalTime(), rep.RefineRounds, rep.PrefetchedScenarios)
	fmt.Printf("blocking candidates=%d pruned=%d (%.1f%% pruned)\n",
		rep.BlockCandidates, rep.BlockPruned, rep.BlockPruneRatio()*100)
	return nil
}

// jsonReport is the machine-readable output of -json. Stage times are
// float64 milliseconds: sub-millisecond runs (common at quick scale) used to
// truncate to 0 under Duration.Milliseconds.
type jsonReport struct {
	Algorithm         string      `json:"algorithm"`
	Mode              string      `json:"mode"`
	Targets           int         `json:"targets"`
	Accuracy          float64     `json:"accuracy"`
	SelectedScenarios int         `json:"selectedScenarios"`
	PerEIDAvg         float64     `json:"perEIDAvg"`
	ETimeMillis       float64     `json:"eTimeMillis"`
	VTimeMillis       float64     `json:"vTimeMillis"`
	RefineRounds      int         `json:"refineRounds"`
	BlockCandidates   int64       `json:"blockCandidates"`
	BlockPruned       int64       `json:"blockPruned"`
	BlockPruneRatio   float64     `json:"blockPruneRatio"`
	Prefetched        int         `json:"prefetchedScenarios"`
	Matches           []jsonMatch `json:"matches"`
}

// jsonMatch carries one EID's outcome. RunnerUp and Margin appear only when
// a second candidate contested the vote: a lone candidate's margin is +Inf,
// which encoding/json cannot represent, so both fields are omitted instead.
type jsonMatch struct {
	EID          string   `json:"eid"`
	VID          string   `json:"vid"`
	Probability  float64  `json:"probability"`
	MajorityFrac float64  `json:"majorityFrac"`
	Acceptable   bool     `json:"acceptable"`
	RunnerUp     string   `json:"runnerUp,omitempty"`
	Margin       *float64 `json:"margin,omitempty"`
	Correct      *bool    `json:"correct,omitempty"`
}

// millis converts a stage duration to float64 milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// emitJSON writes the report for downstream tooling; ground-truth verdicts
// are attached for every EID truth knows.
func emitJSON(w io.Writer, truth func(evmatching.EID) evmatching.VID, rep *evmatching.Report) error {
	out := jsonReport{
		Algorithm:         rep.Algorithm.String(),
		Mode:              rep.Mode.String(),
		Targets:           len(rep.Targets),
		Accuracy:          rep.Accuracy(truth),
		SelectedScenarios: rep.SelectedScenarios,
		PerEIDAvg:         rep.AvgScenariosPerEID(),
		ETimeMillis:       millis(rep.ETime),
		VTimeMillis:       millis(rep.VTime),
		RefineRounds:      rep.RefineRounds,
		BlockCandidates:   rep.BlockCandidates,
		BlockPruned:       rep.BlockPruned,
		BlockPruneRatio:   rep.BlockPruneRatio(),
		Prefetched:        rep.PrefetchedScenarios,
		Matches:           make([]jsonMatch, 0, len(rep.Targets)),
	}
	for _, e := range rep.Targets {
		res := rep.Results[e]
		m := jsonMatch{
			EID:          string(e),
			VID:          string(res.VID),
			Probability:  res.Probability,
			MajorityFrac: res.MajorityFrac,
			Acceptable:   res.Acceptable,
			RunnerUp:     string(res.RunnerUp),
		}
		if !math.IsInf(res.Margin, 0) && !math.IsNaN(res.Margin) {
			margin := res.Margin
			m.Margin = &margin
		}
		if want := truth(e); want != evmatching.NoVID {
			correct := want == res.VID
			m.Correct = &correct
		}
		out.Matches = append(out.Matches, m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
