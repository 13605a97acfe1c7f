// Package blocking keeps the E stage from probing scenarios that cannot
// split anything (DESIGN.md §13). A scenario can only produce an effective
// split while some partition leaf still holds ≥2 undistinguished EIDs ("live"
// targets) and only if a live target appears in it inclusively. The E side is
// keyed by EID and consumed one window at a time, so the index is an exact
// inverted posting per (window, EID) — which scenario of the window holds the
// EID inclusively — and a window's candidates are the postings of the live
// targets: exactly the scenarios that can split, nothing hashed, nothing to
// re-check. The postings belong to the scenario store, which materialises
// them per window on first touch: a match that distinguishes its targets in 8
// of 12 windows never pays for the other 4, a store nobody queries pays
// nothing, and what one match paid for no later one pays again.
package blocking

import (
	"slices"
	"sync/atomic"

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

// Index is a view of one scenario store's exact (window, EID) postings. The
// postings belong to the store (scenario.Store.Postings): a window one view
// materialised is warm for every other view, matcher and match over that
// store, and Store.Add drops exactly the window it grows, so no view can
// serve a stale one. A view's only state of its own is the count of windows
// it had to materialise. All methods are safe for concurrent use.
type Index struct {
	store        *scenario.Store
	materialised atomic.Int64
}

// Build returns a view of store's postings; it costs nothing, and windows
// materialise in the store as they are first queried. A nil store indexes
// nothing.
func Build(store *scenario.Store, _ Geometry) *Index {
	if store == nil {
		store = scenario.NewStore(nil)
	}
	return &Index{store: store}
}

// Materialised returns how many windows this view was first in its store to
// touch — the part of its owner's work another view would not repeat.
func (ix *Index) Materialised() int64 { return ix.materialised.Load() }

// window returns w's postings from the store, counting a first touch.
func (ix *Index) window(w int) *scenario.WindowPostings {
	wp, fresh := ix.store.Postings(w)
	if fresh {
		ix.materialised.Add(1)
	}
	return wp
}

// WindowTotal returns the number of scenarios in window w.
func (ix *Index) WindowTotal(w int) int { return len(ix.window(w).Order()) }

// InclusiveAt returns the scenarios of window w containing e inclusively, in
// AtWindow order. The slice is shared index storage and must not be modified.
// EIDs or windows the store has never seen return nil.
func (ix *Index) InclusiveAt(e ids.EID, w int) []scenario.ID {
	return ix.InclusiveOrd(ix.store.Ordinal(e), w)
}

// InclusiveOrd is InclusiveAt for an EID whose store ordinal the caller
// resolved once (scenario.Store.Ordinal): a touched window costs it no
// hashing at all.
func (ix *Index) InclusiveOrd(ord int32, w int) []scenario.ID {
	held, _ := ix.window(w).Held(ord)
	return held
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
	order := wp.Order()
	if live.NumLive() == 0 {
		return buf, len(order)
	}
	if len(order) <= live.NumLive() {
		for _, id := range order {
			if !live.Prunes(ix.store.E(id)) {
				buf = append(buf, id)
			}
		}
		return buf, len(order)
	}
	// Collect the live targets' ranks in buf's own tail (a rank fits an ID),
	// sort and dedup them there, then turn each rank into its scenario.
	base := len(buf)
	//evlint:ignore maprange the ranks gathered here are sorted before anything reads them
	for e, ord := range live.live {
		if ord == unresolved {
			ord = ix.store.Ordinal(e)
			live.live[e] = ord
		}
		_, ranks := wp.Held(ord)
		for _, r := range ranks {
			buf = append(buf, scenario.ID(r))
		}
	}
	ranks := buf[base:]
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	for i, r := range ranks {
		ranks[i] = order[r]
	}
	return buf[:base+len(ranks)], len(order)
}
