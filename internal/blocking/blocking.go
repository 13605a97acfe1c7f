// Package blocking keeps the E stage from probing scenarios that cannot
// split anything (DESIGN.md §13). A scenario can only produce an effective
// split while some partition leaf still holds ≥2 undistinguished EIDs ("live"
// targets) and only if a live target appears in it inclusively. The E side is
// keyed by EID and consumed one window at a time, so the index is an exact
// inverted posting per (window, EID) — which scenario of the window holds the
// EID inclusively — and a window's candidates are the postings of the live
// targets: exactly the scenarios that can split, nothing hashed, nothing to
// re-check. The postings belong to the scenario store, which writes them as
// it adds each scenario, so no match builds or rebuilds any of them.
package blocking

import (
	"cmp"
	"slices"

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

// Index is a view of one scenario store's exact (window, EID) postings,
// which belong to the store (scenario.Store.Postings) and have no state of
// their own here. Its methods are safe for concurrent use with each other,
// not with Store.Add.
type Index struct {
	store *scenario.Store
}

// Build returns a view of store's postings; it costs nothing. A nil store
// indexes nothing.
func Build(store *scenario.Store, _ Geometry) *Index {
	if store == nil {
		store = scenario.NewStore(nil)
	}
	return &Index{store: store}
}

// InclusiveAt returns the scenarios of window w containing e inclusively, in
// AtWindow order. The slice is shared index storage and must not be modified.
// EIDs or windows the store has never seen return nil.
func (ix *Index) InclusiveAt(e ids.EID, w int) []scenario.ID {
	return ix.InclusiveOrd(ix.store.Ordinal(e), w)
}

// InclusiveOrd is InclusiveAt for an EID whose store ordinal the caller
// resolved once (scenario.Store.Ordinal): it costs no hashing at all.
func (ix *Index) InclusiveOrd(ord int32, w int) []scenario.ID {
	return ix.store.Postings(w).Held(ord)
}

// Candidates appends to buf the scenarios of window w that hold a live
// target inclusively — the only scenarios that can split the partition live
// mirrors — in AtWindow order, and returns the grown buffer;
// len(AtWindow(w)) − len(appended) is the pruned count. It is the
// window-at-a-time form of the test LiveTargets.Prunes makes one scenario at
// a time, read off store ordinals on both sides, and it walks the smaller
// side: the live targets' postings in a sparse world, the window's few
// scenarios, through Prunes, in a crowded one.
func (ix *Index) Candidates(w int, live *LiveTargets, buf []scenario.ID) []scenario.ID {
	if live.NumLive() == 0 {
		return buf
	}
	st := ix.store
	if order := st.AtWindow(w); len(order) <= live.NumLive() {
		for _, id := range order {
			if !live.Prunes(st.View(id)) {
				buf = append(buf, id)
			}
		}
		return buf
	}
	// Collect the live targets' scenarios in buf's tail and dedup them
	// there in ID order, which is AtWindow order unless the window's Adds
	// came out of cell order.
	wp := st.Postings(w)
	base := len(buf)
	live.ords.ForEach(func(o int) { buf = append(buf, wp.Held(int32(o))...) })
	cands := buf[base:]
	slices.Sort(cands)
	cands = slices.Compact(cands)
	byCell := func(a, b scenario.ID) int { return cmp.Compare(st.Cell(a), st.Cell(b)) }
	if !slices.IsSortedFunc(cands, byCell) {
		slices.SortStableFunc(cands, byCell)
	}
	return buf[:base+len(cands)]
}
