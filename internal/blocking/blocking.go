// Package blocking implements the spatiotemporal blocking index that moves
// the E stage's asymptote from n×scenarios toward co-occurrence density
// (SLIM, arXiv:2004.05951; see DESIGN.md §13). Every scenario lives in one
// coarse *block* — its (cell, window) rounded down by configurable strides
// and hashed into a fixed slot universe — and every EID carries the signature
// bitmap of the blocks it was ever observed in. A scenario can only produce
// an effective split while the partition still holds ≥2 undistinguished EIDs
// in its leaf ("live" targets), and only if a live target appears in the
// scenario inclusively; any such target shares the scenario's block, so a
// scenario whose slot is missing from the union signature of the live targets
// is provably a no-op and is skipped without being probed. Hash collisions
// and coarse strides only ever enlarge signatures, so pruning stays sound
// (false candidates are re-checked by the fine path; false prunes cannot
// happen), and the pruned split is bit-identical to the exhaustive one.
package blocking

import (
	"sort"

	"evmatching/internal/bitset"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// Geometry fixes the coarse block space. CellStride and WindowStride group
// adjacent cells/windows into one block (coarser blocks → shorter per-EID
// slot lists, more false candidates); Slots is the hashed slot universe every
// block maps into, bounding signature memory at any world scale.
type Geometry struct {
	CellStride   int
	WindowStride int
	Slots        int // rounded up to a power of two, min 64
}

// DefaultGeometry is the production geometry: exact cells, windows grouped
// by 4, 4096 hash slots (512 B per signature bitmap).
func DefaultGeometry() Geometry {
	return Geometry{CellStride: 1, WindowStride: 4, Slots: 4096}
}

// withDefaults clamps degenerate values and rounds Slots to a power of two
// so slot masking is a single AND.
func (g Geometry) withDefaults() Geometry {
	if g.CellStride < 1 {
		g.CellStride = 1
	}
	if g.WindowStride < 1 {
		g.WindowStride = 1
	}
	n := 64
	for n < g.Slots {
		n <<= 1
	}
	g.Slots = n
	return g
}

// slot maps a (cell, window) block to its hash slot. The mix is a fixed
// Fibonacci-style multiply-xor — deterministic across runs and processes, a
// requirement the checkpoint rebuild rule leans on. Division truncates
// toward zero, which is fine: bucketing only needs to be deterministic, and
// hostile stores may carry negative cells or windows.
func (g Geometry) slot(cell geo.CellID, window int) uint32 {
	cg := uint64(int64(cell) / int64(g.CellStride))
	wg := uint64(int64(window) / int64(g.WindowStride))
	h := cg*0x9E3779B97F4A7C15 + wg*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return uint32(h & uint64(g.Slots-1))
}

// run is a maximal group of consecutive same-slot scenario IDs within one
// window's cell-sorted order. AtWindow sorts by cell, so same-block scenarios
// are adjacent and a window decomposes into few runs.
type run struct {
	slot uint32
	ids  []scenario.ID
}

// windowIndex is one window's candidate structure: its runs in AtWindow
// order, the union slot signature, and the scenario total (for pruned
// accounting when the whole window is skipped).
type windowIndex struct {
	runs  []run
	sig   bitset.Set
	total int
}

// eidEntry is one EID's blocking state: its coarse signature as a sorted
// slot list (built from every appearance, inclusive or vague — a superset
// signature is still sound) and its inclusive postings, grouped by window in
// AtWindow order, which let the padding stage jump straight to the scenarios
// containing the EID instead of scanning whole windows.
type eidEntry struct {
	slots    []uint32
	postWins []int         // ascending windows with ≥1 inclusive appearance
	postOff  []int         // postings offsets, len(postWins)+1 after Build
	postings []scenario.ID // inclusive scenario IDs, window-major
}

// Index is the immutable blocking index over one scenario store. Build once,
// share freely: all methods are safe for concurrent readers.
type Index struct {
	geom Geometry
	wins map[int]*windowIndex
	eids map[ids.EID]*eidEntry
}

// Build constructs the index in one pass over the store: windows ascending,
// scenarios in AtWindow (cell-sorted) order, EIDs within a scenario sorted —
// every slice below is therefore in a canonical order independent of map
// iteration, and two builds over equal stores are identical.
func Build(store *scenario.Store, geom Geometry) *Index {
	geom = geom.withDefaults()
	ix := &Index{geom: geom, wins: make(map[int]*windowIndex), eids: make(map[ids.EID]*eidEntry)}
	if store == nil {
		return ix
	}
	for _, w := range store.Windows() {
		wi := &windowIndex{sig: bitset.New(geom.Slots)}
		for _, id := range store.AtWindow(w) {
			esc := store.E(id)
			if esc == nil {
				continue
			}
			s := geom.slot(esc.Cell, w)
			wi.total++
			if n := len(wi.runs); n > 0 && wi.runs[n-1].slot == s {
				wi.runs[n-1].ids = append(wi.runs[n-1].ids, id)
			} else {
				wi.runs = append(wi.runs, run{slot: s, ids: []scenario.ID{id}})
			}
			wi.sig.Add(int(s))
			//evlint:ignore maprange every append below goes to e's own entry, once per scenario; the order EIDs are visited within a scenario reaches no slice
			for e, attr := range esc.EIDs {
				ent := ix.eids[e]
				if ent == nil {
					ent = &eidEntry{}
					ix.eids[e] = ent
				}
				ent.slots = append(ent.slots, s)
				if attr == scenario.AttrInclusive {
					if n := len(ent.postWins); n == 0 || ent.postWins[n-1] != w {
						ent.postWins = append(ent.postWins, w)
						ent.postOff = append(ent.postOff, len(ent.postings))
					}
					ent.postings = append(ent.postings, id)
				}
			}
		}
		ix.wins[w] = wi
	}
	// Finalize per-EID state: sort+dedup the slot signatures and close the
	// postings offset tables with their end sentinels.
	//evlint:ignore maprange finalizes each entry independently; no cross-entry state, so iteration order cannot matter
	for _, ent := range ix.eids {
		sort.Slice(ent.slots, func(i, j int) bool { return ent.slots[i] < ent.slots[j] })
		kept := ent.slots[:0]
		for i, s := range ent.slots {
			if i == 0 || s != kept[len(kept)-1] {
				kept = append(kept, s)
			}
		}
		ent.slots = kept
		ent.postOff = append(ent.postOff, len(ent.postings))
	}
	return ix
}

// Geometry returns the (defaulted) geometry the index was built with.
func (ix *Index) Geometry() Geometry { return ix.geom }

// NumEIDs returns how many distinct EIDs the index has signatures for.
func (ix *Index) NumEIDs() int { return len(ix.eids) }

// WindowTotal returns the number of scenarios indexed in window w.
func (ix *Index) WindowTotal(w int) int {
	wi := ix.wins[w]
	if wi == nil {
		return 0
	}
	return wi.total
}

// Candidates appends to buf the IDs of the scenarios in window w whose block
// slot intersects sig, preserving AtWindow order, and returns the grown
// buffer plus the window's total scenario count (total − len(appended) is the
// pruned count). An empty intersection with the window's union signature
// skips the run scan entirely.
func (ix *Index) Candidates(w int, sig bitset.Set, buf []scenario.ID) ([]scenario.ID, int) {
	wi := ix.wins[w]
	if wi == nil {
		return buf, 0
	}
	if !bitset.Intersects(wi.sig, sig) {
		return buf, wi.total
	}
	for _, r := range wi.runs {
		if sig.Has(int(r.slot)) {
			buf = append(buf, r.ids...)
		}
	}
	return buf, wi.total
}

// InclusiveAt returns the scenarios of window w containing e inclusively, in
// AtWindow order. The shared slice must not be modified. EIDs or windows the
// index has never seen return nil.
func (ix *Index) InclusiveAt(e ids.EID, w int) []scenario.ID {
	ent := ix.eids[e]
	if ent == nil {
		return nil
	}
	i := sort.SearchInts(ent.postWins, w)
	if i >= len(ent.postWins) || ent.postWins[i] != w {
		return nil
	}
	return ent.postings[ent.postOff[i]:ent.postOff[i+1]]
}

// Live tracks the union coarse signature of the still-undistinguished target
// EIDs during one split run. Wire Resolve to partition.OnResolve: as targets
// resolve, their slots are reference-counted out and the signature shrinks,
// so pruning gets stronger as the split converges. A stale (too-large)
// signature is always sound; a resolved EID never becomes live again because
// split-tree leaves only ever shrink. Not safe for concurrent use — one Live
// per split run, like the partition it mirrors.
type Live struct {
	ix     *Index
	sig    bitset.Set
	counts []int32
	live   map[ids.EID]bool
}

// NewLive builds the live tracker for a fresh partition over targets. A lone
// target's partition is born resolved, so its signature starts (and stays)
// empty and every scenario prunes — matching the exhaustive path, which
// breaks out before applying any.
func (ix *Index) NewLive(targets []ids.EID) *Live {
	l := &Live{
		ix:     ix,
		sig:    bitset.New(ix.geom.Slots),
		counts: make([]int32, ix.geom.Slots),
		live:   make(map[ids.EID]bool, len(targets)),
	}
	if len(targets) < 2 {
		return l
	}
	for _, e := range targets {
		if l.live[e] {
			continue
		}
		l.live[e] = true
		ent := ix.eids[e]
		if ent == nil {
			continue // target never observed: contributes no blocks
		}
		for _, s := range ent.slots {
			if l.counts[s] == 0 {
				l.sig.Add(int(s))
			}
			l.counts[s]++
		}
	}
	return l
}

// Resolve removes e from the live set, dropping slot bits whose reference
// count reaches zero. Safe to call repeatedly and for unknown EIDs.
func (l *Live) Resolve(e ids.EID) {
	if !l.live[e] {
		return
	}
	delete(l.live, e)
	ent := l.ix.eids[e]
	if ent == nil {
		return
	}
	for _, s := range ent.slots {
		if l.counts[s]--; l.counts[s] == 0 {
			l.sig.Remove(int(s))
		}
	}
}

// Sig returns the live union signature for Candidates calls. The set is
// mutated in place by Resolve; callers must not retain it across splits.
func (l *Live) Sig() bitset.Set { return l.sig }

// NumLive returns how many targets are still undistinguished.
func (l *Live) NumLive() int { return len(l.live) }
