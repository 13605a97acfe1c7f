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
	lists := make(map[ids.EID][]scenario.ID, len(targets))
	selected := make(map[scenario.ID]bool)
	for i, e := range targets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: EDP e stage: %w", err)
		}
		list := m.edpSelect(e, int64(i), ix)
		lists[e] = list
		for _, id := range list {
			selected[id] = true
		}
		rep.PerEID[e] = len(list)
	}
	rep.SelectedScenarios = len(selected)
	rep.ETime = time.Since(eStart)

	// V stage: independent per-EID identification tasks, fanned out in
	// parallel mode (one EID per mapper).
	vStart := time.Now()
	results, err := m.edpRunTasks(ctx, targets, lists, rep)
	if err != nil {
		return nil, err
	}
	for _, e := range targets {
		if res, ok := results[e]; ok {
			rep.Results[e] = res
		}
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

// edpRunTasks executes the per-EID V-identification tasks, serially or with
// a worker pool matching the configured parallelism.
func (m *Matcher) edpRunTasks(ctx context.Context, targets []ids.EID, lists map[ids.EID][]scenario.ID, rep *Report) (map[ids.EID]vfilter.Result, error) {
	out := make(map[ids.EID]vfilter.Result, len(targets))
	runOne := func(e ids.EID) (vfilter.Result, vfilter.Stats, error) {
		if err := ctx.Err(); err != nil {
			return vfilter.Result{}, vfilter.Stats{}, fmt.Errorf("core: EDP v stage: %w", err)
		}
		f, err := vfilter.New(m.ds.Store, vfilter.Config{
			Extractor:      feature.Extractor{Dim: m.ds.Config.DescriptorDim(), WorkFactor: m.opts.WorkFactor},
			AcceptMajority: m.opts.AcceptMajority,
		})
		if err != nil {
			return vfilter.Result{}, vfilter.Stats{}, err
		}
		res, err := f.Match(e, lists[e], nil)
		if err != nil {
			return vfilter.Result{}, vfilter.Stats{}, err
		}
		return res, f.Stats(), nil
	}

	if m.opts.Mode == ModeSerial {
		for _, e := range targets {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: EDP v stage: %w", err)
			}
			res, st, err := runOne(e)
			if err != nil {
				return nil, err
			}
			out[e] = res
			mergeStatsInto(&rep.VStats, st)
		}
		return out, nil
	}

	workers := m.opts.Workers
	if workers <= 0 {
		workers = 8
	}
	type item struct {
		eid ids.EID
		res vfilter.Result
		st  vfilter.Stats
		err error
	}
	work := make(chan ids.EID)
	done := make(chan item)
	for w := 0; w < workers; w++ {
		go func() {
			for e := range work {
				res, st, err := runOne(e)
				done <- item{eid: e, res: res, st: st, err: err}
			}
		}()
	}
	// Feed every target unconditionally: after cancellation the workers'
	// runOne calls return immediately with the context error, so exactly
	// one item per target always arrives and the collector cannot block.
	go func() {
		defer close(work)
		for _, e := range targets {
			work <- e
		}
	}()
	var firstErr error
	for range targets {
		it := <-done
		if it.err != nil && firstErr == nil {
			firstErr = it.err
			continue
		}
		if it.err == nil {
			out[it.eid] = it.res
			mergeStatsInto(&rep.VStats, it.st)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: EDP v stage: %w", err)
	}
	return out, nil
}

// mergeStatsInto accumulates src into dst.
func mergeStatsInto(dst *vfilter.Stats, src vfilter.Stats) {
	dst.ScenariosProcessed += src.ScenariosProcessed
	dst.Extractions += src.Extractions
	dst.Comparisons += src.Comparisons
	dst.Pairs += src.Pairs
}
