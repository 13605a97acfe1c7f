package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"evmatching/internal/ids"
	"evmatching/internal/mrjobs"
	"evmatching/internal/partition"
	"evmatching/internal/scenario"
	"evmatching/internal/vfilter"
)

// matchSS runs the paper's set-splitting algorithm: EID set splitting (E
// stage), VID filtering (V stage), and matching refining (Algorithm 2) until
// every match is acceptable or the refine budget is exhausted.
func (m *Matcher) matchSS(ctx context.Context, targets []ids.EID, filter *vfilter.Filter) (*Report, error) {
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
		p, lists, err := m.splitStage(ctx, pending, round, rep, pre)
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
		eids := p.Targets()
		for i, e := range eids {
			rep.PerEID[e] = len(lists[i])
			for _, id := range lists[i] {
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
		for i, e := range eids {
			res := results[i]
			rep.Results[e] = res
			if res.VID == ids.NoVID || !res.Acceptable {
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
	rep.VMemo = filter.Memo()
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
// selected scenario list, lists[i] being that of the partition's Targets()[i].
// Rounds use distinct scenario orders so refining sees fresh evidence. rep,
// when non-nil, accumulates the blocking-pruning counters; the split result
// itself never depends on them.
//
// With blocking enabled (the default), each window contributes only the
// scenarios holding a still-undistinguished target inclusively, which the
// partition reads off the window's postings (Partition.Candidates, DESIGN.md
// §13); every other scenario is a provable no-op. The candidates are a
// window-order subsequence of the exhaustive scan containing every effective
// scenario, so the partition evolves through the identical state sequence,
// records the identical scenarios, and hits Done at the identical point —
// bit-identity with the exhaustive path, which the equivalence property
// tests pin.
func (m *Matcher) splitStage(ctx context.Context, targets []ids.EID, round int, rep *Report, pre *prefetcher) (p *partition.Partition, lists [][]scenario.ID, err error) {
	p, err = partition.New(targets)
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

	// Every path reads store views, their ordinals taken to partition
	// positions without hashing an EID per scenario.
	ords := p.BindStore(store)
	var buf []scenario.ID

	for _, w := range windows {
		if p.Done() {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: split stage: %w", err)
		}
		// The exhaustive scan, the oracle the blocked path is held to, takes
		// every scenario of the window whole, since SplitView ignores
		// ordinals outside the partition. The blocked path reads the live set
		// at window start; splits within the window shrink it for the next
		// one, and mid-window staleness only admits extra no-op candidates —
		// never drops an effective one.
		cands := store.AtWindow(w)
		if !m.opts.DisableBlocking {
			total := len(cands)
			buf = p.Candidates(w, buf[:0])
			cands = buf
			if rep != nil {
				rep.BlockCandidates += int64(len(cands))
				rep.BlockPruned += int64(total - len(cands))
			}
		}
		var mrSets [][]ids.EID
		if m.opts.Mode == ModeParallel {
			if mrSets, err = m.splitIteration(ctx, p, cands); err != nil {
				return nil, nil, err
			}
		}
		for _, id := range cands {
			if p.SplitView(id, store.View(id)) {
				pre.hand(id)
			}
			if p.Done() {
				break
			}
		}
		if m.opts.Mode == ModeParallel && !slices.EqualFunc(mrSets, p.Sets(), slices.Equal) {
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
	lists = p.AllPositiveScenarios()
	if err := PadLists(ctx, store, ords, lists, windows); err != nil {
		return nil, nil, fmt.Errorf("core: split stage: %w", err)
	}
	return p, lists, nil
}

// splitIteration is Algorithm 3's refinement of p by one window's candidates
// at once, through the MapReduce (key, value) shuffle over the candidates
// filtered to the targets, and returns the sets it yields — p's own when no
// candidate holds a target inclusively, since none can then split it. The
// caller replays the same candidates through the split tree for path
// bookkeeping and checks the two agree: they are equivalent by construction,
// and divergence is a bug surfaced rather than hidden.
func (m *Matcher) splitIteration(ctx context.Context, p *partition.Partition, cands []scenario.ID) ([][]ids.EID, error) {
	scenarios := splitScenarios(m.ds.Store, p, cands)
	if len(scenarios) == 0 {
		return p.Sets(), nil
	}
	res, err := mrjobs.SplitIteration(ctx, m.executor(), mrjobs.SplitInput{
		Sets:      p.Sets(),
		Scenarios: scenarios,
	})
	if err != nil {
		return nil, err
	}
	return res.Sets, nil
}

// splitScenarios is Algorithm 3's preprocess step: each candidate as the
// EIDs it holds inclusively that are targets of p, read off its store view
// through the ordinals p has bound, ascending (Targets is sorted, so
// ascending positions are ascending EIDs); a candidate holding none is
// dropped.
func splitScenarios(store *scenario.Store, p *partition.Partition, cands []scenario.ID) []mrjobs.SplitScenario {
	var out []mrjobs.SplitScenario
	var pos []int32
	for _, id := range cands {
		pos = pos[:0]
		v := store.View(id)
		for k, o := range v.Ords {
			if i := p.PosOf(o); i >= 0 && v.Attrs[k] == scenario.AttrInclusive {
				pos = append(pos, i)
			}
		}
		if len(pos) == 0 {
			continue
		}
		slices.Sort(pos)
		eids := make([]ids.EID, len(pos))
		for k, i := range pos {
			eids[k] = p.Targets()[i]
		}
		out = append(out, mrjobs.SplitScenario{ID: id, EIDs: eids})
	}
	return out
}

// PadLists pads lists[i], the positive scenario list of the EID with store
// ordinal ords[i], in place through padToUnique, the lists spread over every
// core, the caller's included. It is the one place per-EID lists are padded:
// the batch split stage pads a round's targets here, and the stream sweep
// its resolved ones over the windows closed so far. Padding copies a list
// before it grows it and otherwise reads only the store and its postings, so
// the result is the same at every core count. Only a cancelled ctx fails it.
func PadLists(ctx context.Context, store *scenario.Store, ords []int32, lists [][]scenario.ID, windows []int) error {
	return fanOut(ctx, runtime.GOMAXPROCS(0), len(lists), func(i int) error {
		lists[i] = padToUnique(store, ords[i], lists[i], windows)
		return nil
	})
}

// padToUnique extends the scenario list of the EID with store ordinal ord
// until the intersection of the listed scenarios' full EID sets is that EID
// alone (or no further scenario helps), and at least minListLen scenarios are
// listed. maxListLen caps the total as a safety valve for worlds where the
// trajectory never becomes unique. Each window's pick is the first unlisted
// scenario holding the EID inclusively in AtWindow order, read off the
// postings by ord, and every set is a store view, so no EID is hashed.
func padToUnique(store *scenario.Store, ord int32, list []scenario.ID, windows []int) []scenario.ID {
	// One allocation: the padding never grows a list past maxListLen.
	out := append(make([]scenario.ID, 0, max(len(list), maxListLen)), list...)
	// Candidate set: EIDs that may co-appear in every listed scenario. A
	// candidate is only eliminated by a scenario it is entirely absent from
	// — a vague sighting still means "possibly there", so in the practical
	// setting lists grow longer before trajectories become unique, exactly
	// the slowdown Theorem 4.4 prices in. The set only shrinks: ascending
	// ordinals, intersected in place with each scenario's ascending view.
	var cands []int32
	seeded := false
	narrow := func(v scenario.EView) {
		switch {
		case !seeded:
			cands, seeded = slices.Clone(v.Ords), true
		case len(cands) > 1:
			// Every listed scenario contains ord, so the set can never
			// shrink below {ord}; once unique it stays unique.
			cands = intersectSorted(cands, v.Ords)
		}
	}
	for _, id := range out {
		narrow(store.View(id))
	}
	for _, w := range windows {
		if len(out) >= maxListLen || (len(out) >= minListLen && len(cands) <= 1) {
			break
		}
		for _, id := range store.Postings(w).Held(ord) {
			if slices.Contains(out, id) {
				continue
			}
			out = append(out, id)
			narrow(store.View(id))
			break // one scenario per window contains e inclusively
		}
	}
	return out
}

// intersectSorted keeps the elements of ascending a that ascending b holds,
// in a's own storage.
func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// vStage runs VID filtering for every target, lists and results both indexed
// by position in p.Targets(), and rules every acceptable VID it returns out
// of accepted for the rounds after. In serial mode it follows Theorem 4.1
// exactly: EIDs are matched in the partition's post-order with each accepted
// VID ruled out for the rest (vfilter.MatchInOrder, which scores on every
// core, still decides in that order, and Adds to accepted as it decides). In
// parallel mode it follows §V-C: features are extracted per scenario and
// compared per EID across mappers, then a sequential fixup resolves VIDs
// claimed by multiple EIDs (keep the higher-probability claim, re-match the
// rest with exclusions).
func (m *Matcher) vStage(ctx context.Context, filter *vfilter.Filter, p *partition.Partition, lists [][]scenario.ID, accepted *vfilter.Exclusion) ([]vfilter.Result, error) {
	eids, order := p.Targets(), p.PostOrder()
	out := make([]vfilter.Result, len(eids))

	if m.opts.Mode == ModeSerial {
		inOrder := make([]ids.EID, len(order))
		ordered := make([][]scenario.ID, len(order))
		for k, i := range order {
			inOrder[k], ordered[k] = eids[i], lists[i]
		}
		err := filter.MatchInOrder(ctx, inOrder, ordered, accepted, func(k int, res vfilter.Result) {
			out[order[k]] = res
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	// Parallel: extraction then comparison as MapReduce jobs.
	exec := m.executor()
	uniq := make(map[scenario.ID]bool)
	var extractList []scenario.ID
	assignments := make([]mrjobs.Assignment, 0, len(order))
	for _, i := range order {
		assignments = append(assignments, mrjobs.Assignment{EID: eids[i], List: lists[i]})
		for _, id := range lists[i] {
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

	// Sequential conflict fixup in post-order priority; winner and losers
	// hold target positions.
	winner := make(map[ids.VID]int)
	var losers []int
	for _, i := range order {
		res := results[eids[i]]
		out[i] = res
		if res.VID == ids.NoVID {
			continue
		}
		prev, taken := winner[res.VID]
		if !taken {
			winner[res.VID] = i
			continue
		}
		if res.Probability > results[eids[prev]].Probability {
			winner[res.VID] = i
			losers = append(losers, prev)
		} else {
			losers = append(losers, i)
		}
	}
	if len(losers) > 0 {
		exclude := accepted.Clone()
		for _, vid := range ids.SortedVIDKeys(winner) {
			exclude.Add(vid)
		}
		for _, i := range losers {
			res, err := filter.Match(eids[i], lists[i], exclude)
			if err != nil {
				return nil, err
			}
			out[i] = res
			if res.VID != ids.NoVID {
				if _, taken := winner[res.VID]; !taken {
					winner[res.VID] = i
					exclude.Add(res.VID)
				} else {
					// Still contended: leave unmatched for refining.
					res.VID = ids.NoVID
					res.Acceptable = false
					out[i] = res
				}
			}
		}
	}
	for _, res := range out {
		if res.VID != ids.NoVID && res.Acceptable {
			accepted.Add(res.VID)
		}
	}
	return out, nil
}
