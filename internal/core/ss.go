package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evmatching/internal/blocking"
	"evmatching/internal/ids"
	"evmatching/internal/mrjobs"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
	"evmatching/internal/vfilter"
)

// matchSS runs the paper's set-splitting algorithm: EID set splitting (E
// stage), VID filtering (V stage), and matching refining (Algorithm 2) until
// every match is acceptable or the refine budget is exhausted.
func (m *Matcher) matchSS(ctx context.Context, targets []ids.EID, filter *vfilter.Filter, ix *blocking.Index) (*Report, error) {
	rep := &Report{
		Algorithm: AlgorithmSS,
		Mode:      m.opts.Mode,
		Targets:   targets,
		Results:   make(map[ids.EID]vfilter.Result, len(targets)),
		PerEID:    make(map[ids.EID]int, len(targets)),
	}
	selected := make(map[scenario.ID]bool)
	accepted := filter.NewExclusion()
	pending := targets
	pre := m.startPrefetch(ctx, filter, len(targets))
	defer pre.join()

	for round := 0; ; round++ {
		eStart := time.Now()
		p, lists, err := m.splitStage(ctx, pending, round, ix, rep, pre)
		rep.ETime += time.Since(eStart)
		if err != nil {
			return nil, err
		}
		if round == 0 {
			// The effective scenarios of the full-target split, in application
			// order — the reference the incremental streaming splitter checks
			// itself against (see stream.Engine.Finalize).
			rep.SplitScenarios = append([]scenario.ID(nil), p.Recorded()...)
		}
		for _, e := range pending {
			list := lists[e]
			rep.PerEID[e] = len(list)
			for _, id := range list {
				selected[id] = true
			}
		}

		vStart := time.Now()
		results, err := m.vStage(ctx, filter, p, lists, accepted)
		rep.VTime += time.Since(vStart)
		if err != nil {
			return nil, err
		}

		var unresolved []ids.EID
		for _, e := range pending {
			res := results[e]
			rep.Results[e] = res
			if res.VID != ids.NoVID && res.Acceptable {
				accepted.Add(res.VID)
			} else {
				unresolved = append(unresolved, e)
			}
		}
		if len(unresolved) == 0 || round >= m.opts.MaxRefineRounds {
			break
		}
		// Matching refining: go through set splitting and VID filtering
		// again on the EIDs whose result is not yet acceptable, with the
		// accepted VIDs ruled out (paper §IV-C4).
		pending = unresolved
		rep.RefineRounds++
	}
	rep.SelectedScenarios = len(selected)
	rep.PrefetchedScenarios = pre.handed
	// Every handed scenario is on a list the V stage has scored, so whatever
	// the helpers still hold is a cache hit: the counters are final.
	rep.VStats = filter.Stats()
	return rep, nil
}

// prefetcher runs the V stage's patch extraction in the E stage's shadow
// (DESIGN.md §9). A scenario the split records is on some target's list for
// good — the split kept an inclusive target on its left, and padding only
// appends — so the moment SplitBy reports it the ID goes to helpers that run
// it through the filter's once-guarded cache, where the V stage finds the
// matrix ready or waits on the same sync.Once. Nothing else is extracted, and
// a failed extraction stays cached for the Score that needs it to report, so
// the helper count — zero at GOMAXPROCS 1 — shows in no result or error.
type prefetcher struct {
	ids    chan scenario.ID
	stop   context.CancelFunc
	wg     sync.WaitGroup
	handed int // IDs given to helpers; only the E stage's goroutine writes it
}

// startPrefetch starts min(GOMAXPROCS, targets)−1 helpers: none in
// ModeParallel, which extracts in its own §V-C job. join must follow.
func (m *Matcher) startPrefetch(ctx context.Context, filter *vfilter.Filter, targets int) *prefetcher {
	pre := &prefetcher{}
	helpers := min(runtime.GOMAXPROCS(0), targets) - 1
	if m.opts.Mode == ModeParallel || helpers <= 0 {
		return pre
	}
	ctx, pre.stop = context.WithCancel(ctx)
	// A split of n sets records at most n−1 scenarios — each adds a leaf — so
	// within a round hand never waits for a helper; what a later round finds
	// still queued the V stage has extracted, and drains at once.
	pre.ids = make(chan scenario.ID, targets)
	for range helpers {
		pre.wg.Add(1)
		go func() {
			defer pre.wg.Done()
			for id := range pre.ids {
				if ctx.Err() == nil {
					// An extraction error is cached and a page-in error recurs:
					// either way the Score that needs the scenario reports it.
					_ = filter.ExtractBatch([]scenario.ID{id})
				}
			}
		}()
	}
	return pre
}

// hand queues a recorded scenario for extraction. A nil prefetcher, or one
// with no helpers, drops it: the V stage extracts it as it always did.
func (pre *prefetcher) hand(id scenario.ID) {
	if pre != nil && pre.ids != nil {
		pre.ids <- id
		pre.handed++
	}
}

// join returns once every helper has exited; the backlog of a match that is
// over — failed, cancelled or done — is skipped, not extracted.
func (pre *prefetcher) join() {
	if pre.ids != nil {
		pre.stop()
		close(pre.ids)
		pre.wg.Wait()
	}
}

// splitStage runs EID set splitting over the store and derives each target's
// selected scenario list. Rounds use distinct scenario orders so refining
// sees fresh evidence. rep, when non-nil, accumulates the blocking-pruning
// counters; the split result itself never depends on them.
//
// With blocking enabled (the default), each window contributes only the
// scenarios holding a still-undistinguished target inclusively, read off the
// window's exact postings through ix (DESIGN.md §13); every other scenario is
// a provable no-op. The candidates are a window-order subsequence of the
// exhaustive scan containing every effective scenario, so the partition
// evolves through the identical state sequence, records the identical
// scenarios, and hits Done at the identical point — bit-identity with the
// exhaustive path, which the equivalence property tests pin.
func (m *Matcher) splitStage(ctx context.Context, targets []ids.EID, round int, ix *blocking.Index, rep *Report, pre *prefetcher) (*partition.Partition, map[ids.EID][]scenario.ID, error) {
	p, err := partition.New(targets)
	if err != nil {
		return nil, nil, err
	}
	store := m.ds.Store
	var windows []int
	if m.opts.ScanOrder == ScanInOrder {
		windows = store.Windows()
	} else {
		rng := m.rngFor(int64(round)*7919 + 13)
		windows = store.ShuffledWindows(rng)
	}

	var (
		live    *blocking.LiveTargets
		candBuf []scenario.ID
		tset    map[ids.EID]bool
	)
	if m.opts.DisableBlocking {
		ix = nil
	} else {
		live = blocking.NewLiveTargets(targets)
		p.OnResolve(live.Resolve)
	}
	if m.opts.Mode == ModeParallel {
		tset = targetSet(targets)
	}

	for _, w := range windows {
		if p.Done() {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: split stage: %w", err)
		}
		cands := store.AtWindow(w)
		if live != nil {
			// The live set is read at window start; splits within the window
			// shrink it for the next one. Mid-window staleness only admits
			// extra no-op candidates — never drops an effective one.
			var total int
			candBuf, total = ix.Candidates(w, live, candBuf[:0])
			cands = candBuf
			if rep != nil {
				rep.BlockCandidates += int64(len(cands))
				rep.BlockPruned += int64(total - len(cands))
			}
		}
		if m.opts.Mode != ModeParallel {
			// SplitBy ignores EIDs outside the partition, so store scenarios
			// go in as they are.
			for _, id := range cands {
				if p.SplitBy(store.E(id)) {
					pre.hand(id)
				}
				if p.Done() {
					break
				}
			}
			continue
		}
		// Algorithm 3: one iteration refines the partition by every scenario
		// of a random timestamp at once, via the MapReduce (key, value)
		// shuffle, over scenarios pre-filtered to the targets. The split
		// tree replays the same scenarios for path bookkeeping; the two
		// refinements are equivalent by construction, and divergence is a
		// bug we surface rather than hide.
		var winScenarios []*scenario.EScenario
		for _, id := range cands {
			if fs := filterScenario(store.E(id), tset); fs != nil {
				winScenarios = append(winScenarios, fs)
			}
		}
		if len(winScenarios) == 0 {
			continue
		}
		mrRes, err := mrjobs.SplitIteration(ctx, m.opts.executor(), mrjobs.SplitInput{
			Sets:      p.Sets(),
			Scenarios: winScenarios,
		})
		if err != nil {
			return nil, nil, err
		}
		for _, s := range winScenarios {
			p.SplitBy(s)
		}
		if !eidSetsEqual(mrRes.Sets, p.Sets()) {
			return nil, nil, fmt.Errorf("core: MapReduce split diverged from reference partition at window %d", w)
		}
	}

	// Per-EID selected lists: the positive scenarios along each split path
	// (shared across targets — the reuse that shrinks the unique-scenario
	// count), padded until the list pins the EID's coarse trajectory down
	// uniquely among ALL EIDs, not just the matching targets. Without the
	// padding a non-target bystander sharing the short path would be an
	// even-odds visual candidate; with it, SS spends about one scenario
	// more per EID than EDP, exactly as the paper's Fig. 7 reports.
	//
	// One tree walk yields every positive list; padding copies a target's own
	// and otherwise reads only the store and its postings, so the targets are
	// padded in place on every core, the caller's included.
	eids, padded := p.Targets(), p.AllPositiveScenarios()
	var next atomic.Int64
	pad := func() {
		for i := int(next.Add(1)) - 1; i < len(eids) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
			padded[i] = padToUnique(store, ix, eids[i], padded[i], windows, m.opts.MinPerEIDList, m.opts.EDPMaxScenarios)
		}
	}
	var others sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(eids)); w++ {
		others.Add(1)
		go func() {
			defer others.Done()
			pad()
		}()
	}
	pad()
	others.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: split stage: %w", err)
	}
	lists := make(map[ids.EID][]scenario.ID, len(eids))
	for i, e := range eids {
		lists[e] = padded[i]
	}
	return p, lists, nil
}

// PadToUnique extends an EID's scenario list until the intersection of the
// listed scenarios' full inclusive EID sets is the singleton {e} (or no
// further scenario helps), and at least minLen scenarios are listed. maxLen
// caps the total as a safety valve for worlds where the trajectory never
// becomes unique. It is shared between the batch split stage and the
// incremental streaming V stage, which pads over the windows closed so far.
func PadToUnique(store *scenario.Store, e ids.EID, list []scenario.ID, windows []int, minLen, maxLen int) []scenario.ID {
	return padToUnique(store, nil, e, list, windows, minLen, maxLen)
}

// padToUnique is PadToUnique with an optional view of the store's postings
// accelerating the per-window "first unlisted scenario containing e
// inclusively" probe: e's ordinal is resolved once and each window is then an
// array read instead of a scan. Postings preserve AtWindow order, so both
// paths pick identical scenarios.
func padToUnique(store *scenario.Store, ix *blocking.Index, e ids.EID, list []scenario.ID, windows []int, minLen, maxLen int) []scenario.ID {
	out := append([]scenario.ID(nil), list...)
	in := make(map[scenario.ID]bool, len(out))
	for _, id := range out {
		in[id] = true
	}
	// Candidate set: EIDs that may co-appear in every listed scenario. A
	// candidate is only eliminated by a scenario it is entirely absent from
	// — a vague sighting still means "possibly there", so in the practical
	// setting lists grow longer before trajectories become unique, exactly
	// the slowdown Theorem 4.4 prices in. The set only shrinks, so it lives
	// in one slice filtered in place per scenario; only its size is ever
	// read, so its order is whatever the first scenario's map gave.
	var cands []ids.EID
	narrow := func(s *scenario.EScenario) {
		if cands == nil {
			cands = make([]ids.EID, 0, len(s.EIDs))
			//evlint:ignore maprange seeds a set that is only filtered and counted; its order is never observed
			for e := range s.EIDs {
				cands = append(cands, e)
			}
			return
		}
		if len(cands) == 1 {
			// Every listed scenario contains e, so the set can never shrink
			// below {e}; once unique it stays unique.
			return
		}
		kept := cands[:0]
		for _, other := range cands {
			if s.Contains(other) {
				kept = append(kept, other)
			}
		}
		cands = kept
	}
	for _, id := range out {
		narrow(store.E(id))
	}
	if minLen > maxLen {
		maxLen = minLen
	}
	var ord int32
	if ix != nil {
		ord = store.Ordinal(e)
	}
	for _, w := range windows {
		if len(out) >= maxLen || (len(out) >= minLen && len(cands) <= 1) {
			break
		}
		if ix != nil {
			for _, id := range ix.InclusiveOrd(ord, w) {
				if in[id] {
					continue
				}
				out = append(out, id)
				in[id] = true
				narrow(store.E(id))
				break // one scenario per window contains e inclusively
			}
			continue
		}
		for _, id := range store.AtWindow(w) {
			s := store.E(id)
			if in[id] || !s.Inclusive(e) {
				continue
			}
			out = append(out, id)
			in[id] = true
			narrow(s)
			break // one scenario per window contains e inclusively
		}
	}
	return out
}

// inPostOrder returns the EIDs that have a list, in the partition's
// post-order — the rule-out order of Theorem 4.1 — beside their lists.
func inPostOrder(p *partition.Partition, lists map[ids.EID][]scenario.ID) (order []ids.EID, ordered [][]scenario.ID) {
	for _, e := range p.PostOrder() {
		if list, ok := lists[e]; ok {
			order = append(order, e)
			ordered = append(ordered, list)
		}
	}
	return order, ordered
}

// vStage runs VID filtering for every target. In serial mode it follows
// Theorem 4.1 exactly: EIDs are matched in post-order with each accepted VID
// ruled out for the rest (vfilter.MatchInOrder, which scores on every core
// and still decides in that order). In parallel mode it follows §V-C: features are
// extracted per scenario and compared per EID across mappers, then a
// sequential fixup resolves VIDs claimed by multiple EIDs (keep the
// higher-probability claim, re-match the rest with exclusions).
func (m *Matcher) vStage(ctx context.Context, filter *vfilter.Filter, p *partition.Partition, lists map[ids.EID][]scenario.ID, accepted *vfilter.Exclusion) (map[ids.EID]vfilter.Result, error) {
	order, ordered := inPostOrder(p, lists)
	out := make(map[ids.EID]vfilter.Result, len(order))

	if m.opts.Mode == ModeSerial {
		err := filter.MatchInOrder(ctx, order, ordered, accepted.Clone(), func(i int, res vfilter.Result) {
			out[order[i]] = res
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	// Parallel: extraction then comparison as MapReduce jobs.
	exec := m.opts.executor()
	uniq := make(map[scenario.ID]bool)
	var extractList []scenario.ID
	assignments := make([]mrjobs.Assignment, 0, len(order))
	for _, e := range order {
		assignments = append(assignments, mrjobs.Assignment{EID: e, List: lists[e]})
		for _, id := range lists[e] {
			if !uniq[id] {
				uniq[id] = true
				extractList = append(extractList, id)
			}
		}
	}
	workers := m.opts.effectiveWorkers()
	if err := mrjobs.ExtractScenarios(ctx, exec, filter, extractList,
		mrjobs.BatchFor(len(extractList), workers)); err != nil {
		return nil, err
	}
	// The job gets its own copy: a straggling map attempt may still be
	// reading it after the job returns and accepted moves on.
	results, err := mrjobs.MatchAssignments(ctx, exec, filter, assignments, accepted.Clone(),
		mrjobs.BatchFor(len(assignments), workers))
	if err != nil {
		return nil, err
	}

	// Sequential conflict fixup in post-order priority.
	winner := make(map[ids.VID]ids.EID)
	var losers []ids.EID
	for _, e := range order {
		res := results[e]
		out[e] = res
		if res.VID == ids.NoVID {
			continue
		}
		prev, taken := winner[res.VID]
		if !taken {
			winner[res.VID] = e
			continue
		}
		if res.Probability > results[prev].Probability {
			winner[res.VID] = e
			losers = append(losers, prev)
		} else {
			losers = append(losers, e)
		}
	}
	if len(losers) > 0 {
		exclude := accepted.Clone()
		for _, vid := range ids.SortedVIDKeys(winner) {
			exclude.Add(vid)
		}
		for _, e := range losers {
			res, err := filter.Match(e, lists[e], exclude)
			if err != nil {
				return nil, err
			}
			out[e] = res
			if res.VID != ids.NoVID {
				if _, taken := winner[res.VID]; !taken {
					winner[res.VID] = e
					exclude.Add(res.VID)
				} else {
					// Still contended: leave unmatched for refining.
					res.VID = ids.NoVID
					res.Acceptable = false
					out[e] = res
				}
			}
		}
	}
	return out, nil
}

// eidSetsEqual reports whether two partitions are identical: same sets, same
// order, same members — the divergence check's equality without reflection.
func eidSetsEqual(a, b [][]ids.EID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
