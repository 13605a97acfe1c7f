package core

import (
	"fmt"
	"strings"
	"time"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/spill"
	"evmatching/internal/vfilter"
)

// Report is the outcome of one Match call, carrying both the per-EID results
// and the cost metrics the paper evaluates: unique selected scenarios,
// per-EID scenario counts, and the E/V stage processing times.
type Report struct {
	Algorithm Algorithm
	Mode      Mode
	// Targets is the sorted EID set that was matched.
	Targets []ids.EID
	// Results maps each target EID to its match.
	Results map[ids.EID]vfilter.Result
	// PerEID maps each EID to the number of scenarios on its selected list.
	PerEID map[ids.EID]int
	// SelectedScenarios is the number of distinct scenarios across all
	// lists ("reused scenario is only counted once", paper §VI-B).
	SelectedScenarios int
	// ETime and VTime are the stages' wall times, accumulated across refine
	// rounds — not CPU ledgers: on more than one proc part of serial SS's
	// patch extraction runs on helper goroutines in the E stage's shadow
	// (PrefetchedScenarios) and adds to neither.
	ETime time.Duration
	VTime time.Duration
	// VStats aggregates the visual-processing work performed.
	VStats vfilter.Stats
	// RefineRounds is how many extra refine iterations ran (0 = none).
	RefineRounds int
	// BlockCandidates and BlockPruned count the store scenarios the posting
	// index admitted to (respectively excluded from) split probing, summed
	// across refine rounds: together, every scenario of every window a split
	// scanned. Like ETime/VTime they measure effort, not results — the pruned
	// path is bit-identical to the exhaustive one — so Fingerprint excludes
	// them. Both stay zero under DisableBlocking.
	BlockCandidates int64
	BlockPruned     int64
	// BlockMaterialised counts the posting windows this match was first to
	// touch in its store: effort again, excluded from Fingerprint.
	BlockMaterialised int64
	// PrefetchedScenarios counts the recorded scenarios serial SS's E stage
	// handed to its extraction helpers over all rounds: zero at GOMAXPROCS 1
	// and in ModeParallel, where none starts. Effort, not in Fingerprint.
	PrefetchedScenarios int
	// SplitScenarios lists the effective scenarios recorded by the round-0
	// set split, in application order. It is derived bookkeeping rather than
	// a match result, so Fingerprint excludes it; stream.Engine.Finalize
	// cross-checks its incremental split against it.
	SplitScenarios []scenario.ID
	// Spill snapshots the out-of-core activity of the run (DESIGN.md §14).
	// Like the timing fields it measures effort, not results — the spilled
	// path is bit-identical to the in-memory one — so Fingerprint excludes
	// it. All-zero when MemBudget is unset or never exceeded.
	Spill spill.Snapshot
}

// TotalTime returns the combined stage time (the paper's E+V time).
func (r *Report) TotalTime() time.Duration { return r.ETime + r.VTime }

// Accuracy returns the fraction of targets whose majority-voted VID equals
// the ground truth provided by truth (paper §VI-B: "the majority of the VIDs
// chosen from the scenarios for this EID is the right VID"). Targets for
// which truth returns ids.NoVID are skipped.
func (r *Report) Accuracy(truth func(ids.EID) ids.VID) float64 {
	correct, total := 0, 0
	for _, e := range r.Targets {
		want := truth(e)
		if want == ids.NoVID {
			continue
		}
		total++
		if res, ok := r.Results[e]; ok && res.VID == want {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// AvgScenariosPerEID returns the mean selected-list length (paper Fig. 7).
func (r *Report) AvgScenariosPerEID() float64 {
	if len(r.PerEID) == 0 {
		return 0
	}
	sum := 0
	for _, n := range r.PerEID {
		sum += n
	}
	return float64(sum) / float64(len(r.PerEID))
}

// Fingerprint renders every result-affecting field of the report in a
// canonical textual form: targets in sorted order, each with its match
// outcome, scenario-list length, and per-scenario votes, followed by the
// aggregate counters. Timing and work-cost fields (ETime, VTime, VStats,
// BlockCandidates, BlockPruned, BlockMaterialised, PrefetchedScenarios) are
// excluded: they measure effort, not results, and legitimately vary when the
// cluster re-executes tasks after faults, when blocking is toggled, when the
// store is warm or with GOMAXPROCS. Two runs over the same dataset and
// options must produce byte-identical fingerprints — the determinism
// guarantee evlint's maprange rule protects and the chaos sim asserts under
// fault injection (see DESIGN.md).
func (r *Report) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "algorithm=%s mode=%s\n", r.Algorithm, r.Mode)
	for _, e := range r.Targets {
		res := r.Results[e]
		fmt.Fprintf(&sb, "%s vid=%s prob=%.12g maj=%.12g acceptable=%t runnerup=%s margin=%.12g list=%d votes=[",
			e, res.VID, res.Probability, res.MajorityFrac, res.Acceptable, res.RunnerUp, res.Margin, r.PerEID[e])
		for i, v := range res.PerScenario {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(string(v))
		}
		sb.WriteString("]\n")
	}
	fmt.Fprintf(&sb, "selected=%d refines=%d\n", r.SelectedScenarios, r.RefineRounds)
	return sb.String()
}

// BlockPruneRatio returns the fraction of the scanned windows' scenarios the
// posting index pruned before probing, in [0,1]. Zero when blocking was
// disabled or the store was empty.
func (r *Report) BlockPruneRatio() float64 {
	total := r.BlockCandidates + r.BlockPruned
	if total == 0 {
		return 0
	}
	return float64(r.BlockPruned) / float64(total)
}

// Matched returns how many targets received a non-empty VID.
func (r *Report) Matched() int {
	n := 0
	for _, res := range r.Results {
		if res.VID != ids.NoVID {
			n++
		}
	}
	return n
}
