package scenario

import (
	"slices"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// WindowPostings is one window's scenarios and its exact inverted index
// (DESIGN.md §13): for every EID ordinal, which scenario of the window holds
// that EID inclusively. Add writes it as it writes the scenario's view, into
// indexes that never move, so a reader never builds or invalidates anything.
// A well-formed world holds an EID inclusively in at most one scenario per
// window, so the index is one int32 per ordinal. The slices it hands out are
// shared storage, valid while no Add runs.
type WindowPostings struct {
	// ids lists the window's scenarios as Add brought them (ascending ID);
	// sorted is the same set in AtWindow order, by cell, ties by ID, and nil
	// while that is Add order, as it is for a generator's and a stream's.
	ids, sorted []ID
	// rank is indexed by EID ordinal: 0 when no scenario holds it, 1 + an
	// index into ids, or -1-s for the list at multi[s]. Ordinals past its end
	// were never held inclusively here.
	rank []int32
	// multi is a slab of the lists, in AtWindow order, of the EIDs a hostile
	// store made inclusive in several scenarios of the window: a pair is its
	// two IDs, a longer list of n is -n, the list and room up to the next
	// power of two. A full list moves to the slab's end with twice the room.
	// A pair that moves leaves its slots to the next new pair: free-1 is the
	// first such slot (0: none), and each one's first ID links on the same way.
	multi []ID
	free  int
}

// noPostings is the window nobody added to.
var noPostings WindowPostings

// EView is an E-Scenario read through its store's EID ordinals: every EID it
// holds, as ascending ordinals, beside each one's attribute. Its slices are
// shared store storage and must not be modified.
type EView struct {
	Ords  []int32
	Attrs []Attr
}

// Held returns the scenarios of the window holding ordinal ord inclusively,
// in AtWindow order; nil when there is none. It takes no lock and allocates
// nothing.
func (wp *WindowPostings) Held(ord int32) []ID {
	if int(ord) >= len(wp.rank) {
		return nil
	}
	return wp.holders(wp.rank[ord])
}

// holders returns the scenarios rank r names.
func (wp *WindowPostings) holders(r int32) []ID {
	switch {
	case r == 0:
		return nil
	case r > 0:
		return wp.ids[r-1 : r : r]
	}
	s := int(-1 - r)
	if n := int(wp.multi[s]); n < 0 {
		return wp.multi[s+1 : s+1-n : s+1-n]
	}
	return wp.multi[s : s+2 : s+2]
}

// Ordinal returns e's index into every view and WindowPostings of this
// store, assigning the next one when e has none: the table is append-only,
// so an ordinal resolved once stays valid across Add. An EID the store never
// held gets one too — it lies past or reads absent in every window.
func (st *Store) Ordinal(e ids.EID) int32 {
	st.postMu.Lock()
	defer st.postMu.Unlock()
	return st.internLocked(e)
}

// NumOrdinals returns how many EID ordinals the store has assigned.
func (st *Store) NumOrdinals() int {
	st.postMu.Lock()
	defer st.postMu.Unlock()
	return len(st.eids)
}

func (st *Store) internLocked(e ids.EID) int32 {
	ord, ok := st.ords[e]
	if !ok {
		ord = int32(len(st.eids))
		st.ords[e] = ord
		st.eids = append(st.eids, e)
	}
	return ord
}

// View returns scenario id as ordinals, as Add wrote it: a scenario's EIDs
// are fixed at Add and ordinals never move, so a view stays valid for the
// life of the store, whatever Add does later. It takes no lock and
// allocates nothing. Safe for concurrent use with everything but Add.
func (st *Store) View(id ID) EView {
	lo, hi := st.viewAt[id], st.viewAt[id+1]
	return EView{Ords: st.viewOrds[lo:hi:hi], Attrs: st.viewAttrs[lo:hi:hi]}
}

// Attr returns the attribute of ordinal ord in the view and whether the
// view holds it at all.
func (v EView) Attr(ord int32) (Attr, bool) {
	k, ok := slices.BinarySearch(v.Ords, ord)
	if !ok {
		return 0, false
	}
	return v.Attrs[k], true
}

// Postings returns window w's postings, as Add wrote them. It takes no lock
// and builds nothing: safe for concurrent use with everything but Add.
func (st *Store) Postings(w int) *WindowPostings {
	if wp := st.wins[w]; wp != nil {
		return wp
	}
	return &noPostings
}

// post adds scenario id, of the given cell and window, to the window's
// postings, keys being its view as Add packs it. Callers are Add alone.
func (st *Store) post(id ID, cell geo.CellID, window int, keys []uint64) {
	wp := st.wins[window]
	if wp == nil {
		wp = &WindowPostings{}
		st.wins[window] = wp
	}
	wp.ids = append(wp.ids, id)
	r := int32(len(wp.ids)) // id's rank
	if wp.sorted != nil || (r > 1 && st.at[wp.ids[r-2]].cell > cell) {
		if wp.sorted == nil {
			wp.sorted = slices.Clone(wp.ids[:r-1])
		}
		wp.sorted = slices.Insert(wp.sorted, st.cellPos(wp.sorted, cell), id)
	}
	// Add interned every ordinal of keys, so the window's ranks reach them.
	if n := len(st.eids); len(wp.rank) < n {
		wp.rank = append(wp.rank, make([]int32, n-len(wp.rank))...)
	}
	for _, k := range keys {
		if Attr(k) != AttrInclusive {
			continue
		}
		if ord := k >> 8; wp.rank[ord] == 0 {
			wp.rank[ord] = r
		} else {
			wp.rank[ord] = st.holdToo(wp, wp.rank[ord], id, cell)
		}
	}
}

// holdToo adds scenario id, of the given cell, to the holders of an EID
// whose rank in wp is r0, in the multi slab, and returns the EID's rank from
// now on.
func (st *Store) holdToo(wp *WindowPostings, r0 int32, id ID, cell geo.CellID) int32 {
	held := wp.holders(r0)
	n, s := len(held), int(-1-r0) // s is the list's slot when n > 1
	switch {
	case n == 1 && wp.free > 0: // a new pair, in a moved pair's slots
		s = wp.free - 1
		wp.free = int(wp.multi[s])
		wp.multi[s] = held[0]
	case n&(n-1) == 0: // one holder or a full list: move to the slab's end
		from := s
		s = len(wp.multi)
		if n > 1 {
			wp.multi = append(wp.multi, 0)
		}
		wp.multi = append(wp.multi, held...)
		wp.multi = append(wp.multi, make([]ID, max(n, 1))...)
		if n == 2 { // the pair's slots go on the free list
			wp.multi[from], wp.free = ID(wp.free), from+1
		}
	}
	start := s
	if n > 1 {
		start++
		wp.multi[s] = ID(-n - 1)
	}
	list := wp.multi[start : start+n+1]
	i := st.cellPos(list[:n], cell)
	copy(list[i+1:], list[i:n])
	list[i] = id
	return int32(-1 - s)
}

// cellPos returns where in list, which is in AtWindow order and holds only
// lower IDs, a scenario of the given cell goes: after every scenario of a
// cell up to its own. Adds that come in cell order, as a generator's and a
// stream's do, append.
func (st *Store) cellPos(list []ID, cell geo.CellID) int {
	i := len(list)
	for i > 0 && st.at[list[i-1]].cell > cell {
		i--
	}
	return i
}
