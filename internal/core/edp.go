package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"evmatching/internal/blocking"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/vfilter"
)

// matchEDP runs the baseline of Teng et al. [24], adapted to parallel
// execution as the paper does for its comparison (§VI-B): every EID is an
// independent task — E-filtering walks the EID's own trajectory, selecting
// the scenarios it appears in until the running intersection of their EID
// sets is a singleton, then V-identification matches the VID within those
// scenarios. There is no cross-EID scenario reuse and no rule-out: each
// task gets its own extraction state, so a scenario selected by two EIDs is
// processed twice (the cost EV-Matching's reuse avoids).
func (m *Matcher) matchEDP(ctx context.Context, targets []ids.EID, ix *blocking.Index) (*Report, error) {
	rep := &Report{
		Algorithm: AlgorithmEDP,
		Mode:      m.opts.Mode,
		Targets:   targets,
		Results:   make(map[ids.EID]vfilter.Result, len(targets)),
		PerEID:    make(map[ids.EID]int, len(targets)),
	}

	// E stage: per-EID scenario selection.
	eStart := time.Now()
	lists := make([][]scenario.ID, len(targets))
	selected := make(map[scenario.ID]bool)
	for i, e := range targets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: EDP e stage: %w", err)
		}
		lists[i] = m.edpSelect(e, int64(i), ix)
		for _, id := range lists[i] {
			selected[id] = true
		}
		rep.PerEID[e] = len(lists[i])
	}
	rep.SelectedScenarios = len(selected)
	rep.ETime = time.Since(eStart)

	// V stage: independent per-EID identification tasks, each on a filter of
	// its own, one worker in serial mode and one per configured worker in
	// parallel mode.
	vStart := time.Now()
	workers := 1
	if m.opts.Mode == ModeParallel {
		workers = m.opts.effectiveWorkers()
	}
	results := make([]vfilter.Result, len(targets))
	stats := make([]vfilter.Stats, len(targets))
	err := fanOut(ctx, workers, len(targets), func(i int) error {
		f, err := vfilter.New(m.ds.Store, vfilter.Config{
			Extractor:      feature.Extractor{Dim: m.ds.Config.DescriptorDim(), WorkFactor: m.opts.WorkFactor},
			AcceptMajority: m.opts.AcceptMajority,
		})
		if err != nil {
			return err
		}
		results[i], err = f.Match(targets[i], lists[i], nil)
		stats[i] = f.Stats()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: EDP v stage: %w", err)
	}
	for i, e := range targets {
		rep.Results[e] = results[i]
		rep.VStats.ScenariosProcessed += stats[i].ScenariosProcessed
		rep.VStats.Extractions += stats[i].Extractions
		rep.VStats.Comparisons += stats[i].Comparisons
		rep.VStats.Pairs += stats[i].Pairs
	}
	rep.VTime = time.Since(vStart)
	return rep, nil
}

// edpSelect walks windows in a per-EID random order, accumulating scenarios
// that contain e until the intersection of their (full) EID sets is a
// singleton, the selection cap is reached, or windows run out. A window's
// pick is the first scenario in AtWindow order holding e inclusively, read
// off the store's postings through ix.
func (m *Matcher) edpSelect(e ids.EID, salt int64, ix *blocking.Index) []scenario.ID {
	rng := m.rngFor(104729 + salt)
	windows := m.ds.Store.ShuffledWindows(rng)
	ord := m.ds.Store.Ordinal(e)
	var list []scenario.ID
	// The EIDs inclusive in every listed scenario, as ascending ordinals.
	var candidates []int32
	for _, w := range windows {
		held := ix.InclusiveOrd(ord, w)
		if len(held) == 0 {
			continue
		}
		found := m.ds.Store.View(held[0])
		if len(list) == 0 {
			for k, o := range found.Ords {
				if found.Attrs[k] == scenario.AttrInclusive {
					candidates = append(candidates, o)
				}
			}
		} else {
			candidates = slices.DeleteFunc(candidates, func(o int32) bool {
				attr, _ := found.Attr(o)
				return attr != scenario.AttrInclusive
			})
		}
		list = append(list, held[0])
		if len(candidates) <= 1 || len(list) >= maxListLen {
			break
		}
	}
	return list
}
