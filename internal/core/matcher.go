package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"evmatching/internal/blocking"
	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/spill"
	"evmatching/internal/vfilter"
)

// ErrNoDataset reports construction without a dataset.
var ErrNoDataset = errors.New("core: nil dataset")

// ErrNoTargets reports a Match call with no target EIDs.
var ErrNoTargets = errors.New("core: no target EIDs")

// Matcher matches EIDs to VIDs over one dataset. A Matcher is safe to reuse
// for multiple Match calls, concurrent ones included; each call works from
// fresh state. The postings its E stage reads belong to ds.Store (DESIGN.md
// §13): what any match over that store materialised is warm for the next.
type Matcher struct {
	ds   *dataset.Dataset
	opts Options
}

// New creates a Matcher over the dataset.
func New(ds *dataset.Dataset, opts Options) (*Matcher, error) {
	if ds == nil {
		return nil, ErrNoDataset
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// A budgeted run always gets a stats sink so Report.Spill can prove
	// (or disprove) that the budget actually forced out-of-core work.
	if opts.MemBudget > 0 && opts.SpillStats == nil {
		opts.SpillStats = &spill.Stats{}
	}
	return &Matcher{ds: ds, opts: opts}, nil
}

// Options returns the matcher's effective (defaulted) options.
func (m *Matcher) Options() Options { return m.opts }

// Match matches the target EIDs to their VIDs. Matching size is elastic:
// pass one EID, any subset, or every EID in the dataset (universal
// matching). Unknown EIDs are allowed — they simply fail to match.
func (m *Matcher) Match(ctx context.Context, targets []ids.EID) (*Report, error) {
	targets = dedupEIDs(targets)
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	filter, err := vfilter.New(m.ds.Store, vfilter.Config{
		Extractor:      feature.Extractor{Dim: m.ds.Config.DescriptorDim(), WorkFactor: m.opts.WorkFactor},
		AcceptMajority: m.opts.AcceptMajority,
	})
	if err != nil {
		return nil, err
	}
	var rep *Report
	// A view of the store's postings for this call alone: its only state is
	// the count of windows it was first to touch.
	ix := blocking.Build(m.ds.Store, blocking.DefaultGeometry())
	switch m.opts.Algorithm {
	case AlgorithmSS:
		rep, err = m.matchSS(ctx, targets, filter, ix)
	case AlgorithmEDP:
		rep, err = m.matchEDP(ctx, targets, ix)
	default:
		return nil, fmt.Errorf("%w: algorithm %v", ErrBadOptions, m.opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	// Safety net for paged stores: if any legacy V accessor failed to
	// reload an evicted payload mid-run, the scenario read as "no
	// detections" and the report could be silently wrong — fail instead.
	if perr := m.ds.Store.PageErr(); perr != nil {
		return nil, fmt.Errorf("core: match ran over incompletely paged state: %w", perr)
	}
	rep.Spill = m.opts.SpillStats.Snapshot()
	rep.BlockMaterialised = ix.Materialised()
	return rep, nil
}

// MatchAll performs universal matching: every EID in the dataset is labeled
// with its VID in one pass (paper §I: universal dataset matching).
func (m *Matcher) MatchAll(ctx context.Context) (*Report, error) {
	return m.Match(ctx, m.ds.AllEIDs())
}

// dedupEIDs drops duplicates and empty EIDs, returning a sorted copy.
func dedupEIDs(targets []ids.EID) []ids.EID {
	seen := make(map[ids.EID]bool, len(targets))
	out := make([]ids.EID, 0, len(targets))
	for _, e := range targets {
		if e == ids.None || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return ids.SortEIDs(out)
}

// filterScenario returns a view of s restricted to the target EIDs, or nil
// when no target appears — the preprocess filtering of Algorithm 3, needed
// only by the MapReduce split it feeds (partition.SplitBy skips non-targets
// itself). The view shares s's ID so recorded scenarios resolve to real
// store entries.
func filterScenario(s *scenario.EScenario, targets map[ids.EID]bool) *scenario.EScenario {
	var kept map[ids.EID]scenario.Attr
	//evlint:ignore maprange builds a map view keyed by distinct EIDs; insertion order cannot affect its contents
	for e, a := range s.EIDs {
		if targets[e] {
			if kept == nil {
				kept = make(map[ids.EID]scenario.Attr)
			}
			kept[e] = a
		}
	}
	if kept == nil {
		return nil
	}
	return &scenario.EScenario{ID: s.ID, Cell: s.Cell, Window: s.Window, EIDs: kept}
}

// targetSet builds a membership set.
func targetSet(targets []ids.EID) map[ids.EID]bool {
	set := make(map[ids.EID]bool, len(targets))
	for _, e := range targets {
		set[e] = true
	}
	return set
}

// rngFor derives a deterministic rand.Rand for a labeled purpose.
func (m *Matcher) rngFor(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(m.opts.Seed*1_000_003 + salt))
}
