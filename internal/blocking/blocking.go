// Package blocking is what is left of the E stage's blocking index now that
// the scenario store owns the (window, EID) postings and the partition owns
// the live targets and the candidate walk (DESIGN.md §13). No program in the
// module imports it: it keeps only the calls bench/perf/layers.go makes —
// Build(store, DefaultGeometry()) and Index.InclusiveAt — so the benchmark
// builds unchanged. The next change to the benchmark deletes the package.
package blocking

import (
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// Geometry is empty: exact postings have no block space to configure.
type Geometry struct{}

// DefaultGeometry returns the only Geometry there is.
func DefaultGeometry() Geometry { return Geometry{} }

// Index is a view of one scenario store's postings (scenario.Store.Postings),
// with no state of its own.
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
// AtWindow order. The slice is shared store storage and must not be
// modified. EIDs or windows the store has never seen return nil.
func (ix *Index) InclusiveAt(e ids.EID, w int) []scenario.ID {
	return ix.store.Postings(w).Held(ix.store.Ordinal(e))
}
