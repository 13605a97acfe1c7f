// Package blocking keeps the E stage from probing scenarios that cannot
// split anything (DESIGN.md §13). A scenario can only produce an effective
// split while some partition leaf still holds ≥2 undistinguished EIDs ("live"
// targets) and only if a live target appears in it inclusively. The E side is
// keyed by EID and consumed one window at a time, so the index is an exact
// inverted posting per (window, EID) — which scenario of the window holds the
// EID inclusively — and a window's candidates are the postings of the live
// targets: exactly the scenarios that can split, nothing hashed, nothing to
// re-check. Postings are materialised per window on first touch; a match that
// distinguishes its targets in 8 of 12 windows never pays for the other 4,
// and an index nobody queries costs nothing.
package blocking

import (
	"slices"
	"sync"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// Geometry is empty: exact postings have no block space to configure. It
// exists only because bench/perf/layers.go calls Build(store,
// DefaultGeometry()) and a PR may not edit bench/ alongside a measured
// claim; the next [benchmark] PR removes the type and the parameter.
type Geometry struct{}

// DefaultGeometry returns the only Geometry there is.
func DefaultGeometry() Geometry { return Geometry{} }

// windowPostings is one materialised window. order is the store's AtWindow
// list, and an EID's posting is a rank into it: a window holds an EID
// inclusively in at most one scenario in any well-formed world, so one int32
// per EID is the whole index and InclusiveAt is a one-element slice of order.
type windowPostings struct {
	order []scenario.ID
	first map[ids.EID]int32
	// multi holds the EIDs a hostile store made inclusive in several
	// scenarios of the window: all their ranks ascending, and the scenario IDs
	// at those ranks. first still carries the lowest rank.
	multi map[ids.EID]*multiPosting
}

type multiPosting struct {
	ranks []int32
	ids   []scenario.ID
}

// Index is the exact (window, EID) posting index over one scenario store. It
// describes the store as it was when each window was first touched: the owner
// rebuilds it (Build is free) when the store has grown. All methods are safe
// for concurrent use.
type Index struct {
	store *scenario.Store
	mu    sync.Mutex
	wins  map[int]*windowPostings
}

// Build returns an empty index over store; windows materialise as they are
// first queried. A nil store indexes nothing.
func Build(store *scenario.Store, _ Geometry) *Index {
	return &Index{store: store, wins: make(map[int]*windowPostings)}
}

// window returns w's postings, materialising them on first touch by one pass
// over the window's scenarios in AtWindow order.
func (ix *Index) window(w int) *windowPostings {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if wp := ix.wins[w]; wp != nil {
		return wp
	}
	wp := &windowPostings{}
	if ix.store != nil {
		wp.order = ix.store.AtWindow(w)
	}
	pairs := 0
	for _, id := range wp.order {
		pairs += ix.store.E(id).Len()
	}
	wp.first = make(map[ids.EID]int32, pairs)
	for rank, id := range wp.order {
		//evlint:ignore maprange each EID's posting depends only on the ranks it appears at, which ascend with the outer loop; the order within one scenario reaches nothing
		for e, attr := range ix.store.E(id).EIDs {
			if attr != scenario.AttrInclusive {
				continue
			}
			r0, dup := wp.first[e]
			if !dup {
				wp.first[e] = int32(rank)
				continue
			}
			mp := wp.multi[e]
			if mp == nil {
				if wp.multi == nil {
					wp.multi = make(map[ids.EID]*multiPosting)
				}
				mp = &multiPosting{ranks: []int32{r0}, ids: []scenario.ID{wp.order[r0]}}
				wp.multi[e] = mp
			}
			mp.ranks = append(mp.ranks, int32(rank))
			mp.ids = append(mp.ids, id)
		}
	}
	ix.wins[w] = wp
	return wp
}

// WindowTotal returns the number of scenarios in window w.
func (ix *Index) WindowTotal(w int) int { return len(ix.window(w).order) }

// InclusiveAt returns the scenarios of window w containing e inclusively, in
// AtWindow order. The slice is shared index storage and must not be modified.
// EIDs or windows the store has never seen return nil.
func (ix *Index) InclusiveAt(e ids.EID, w int) []scenario.ID {
	wp := ix.window(w)
	r, ok := wp.first[e]
	if !ok {
		return nil
	}
	if mp := wp.multi[e]; mp != nil {
		return mp.ids
	}
	return wp.order[r : r+1]
}

// Candidates appends to buf the scenarios of window w that hold a live target
// inclusively — the only scenarios that can split the partition live mirrors
// — in AtWindow order, and returns the grown buffer plus the window's total
// scenario count (total − len(appended) is the pruned count). It is the
// window-at-a-time form of the test LiveTargets.Prunes makes one scenario at
// a time, and like Prunes it walks the smaller side: the live targets'
// postings in a sparse world, the window's few scenarios in a crowded one.
func (ix *Index) Candidates(w int, live *LiveTargets, buf []scenario.ID) ([]scenario.ID, int) {
	wp := ix.window(w)
	if live.NumLive() == 0 {
		return buf, len(wp.order)
	}
	if len(wp.order) <= live.NumLive() {
		for _, id := range wp.order {
			if !live.Prunes(ix.store.E(id)) {
				buf = append(buf, id)
			}
		}
		return buf, len(wp.order)
	}
	// Collect the live targets' ranks in buf's own tail (a rank fits an ID),
	// sort and dedup them there, then turn each rank into its scenario.
	base := len(buf)
	//evlint:ignore maprange the ranks gathered here are sorted before anything reads them
	for e := range live.live {
		r, ok := wp.first[e]
		if !ok {
			continue
		}
		if mp := wp.multi[e]; mp != nil {
			for _, r := range mp.ranks {
				buf = append(buf, scenario.ID(r))
			}
			continue
		}
		buf = append(buf, scenario.ID(r))
	}
	ranks := buf[base:]
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	for i, r := range ranks {
		ranks[i] = wp.order[r]
	}
	return buf[:base+len(ranks)], len(wp.order)
}
