package scenario

import (
	"slices"

	"evmatching/internal/ids"
)

// WindowPostings is one window's exact inverted index (DESIGN.md §13): for
// every EID ordinal, where in the window's AtWindow list the scenario holding
// that EID inclusively sits. A well-formed world holds an EID inclusively in
// at most one scenario per window, so the index is one int32 per ordinal. It
// is immutable once published; the slices it hands out are shared storage.
// Its forward half — each scenario as ordinals — is the store's View.
type WindowPostings struct {
	order []ID
	// rank is indexed by EID ordinal: a rank into order, absent, or
	// multiBase-i for multi[i]. Ordinals interned after the window was
	// materialised lie past its end; had the window held them they would
	// have been interned by then, so they are absent too.
	rank []int32
	// multi holds the EIDs a hostile store made inclusive in several
	// scenarios of the window: all their ranks, ascending, and the scenario
	// IDs at those ranks.
	multi []multiPosting
}

type multiPosting struct {
	ranks []int32
	ids   []ID
}

const (
	absent    int32 = -1
	multiBase int32 = -2
)

// EView is an E-Scenario read through its store's EID ordinals: every EID it
// holds, as ascending ordinals, beside each one's attribute. Its slices are
// shared store storage and must not be modified.
type EView struct {
	Ords  []int32
	Attrs []Attr
}

// Order returns the window's scenarios in AtWindow order.
func (wp *WindowPostings) Order() []ID { return wp.order }

// Held returns the scenarios holding ordinal ord inclusively, in AtWindow
// order, and their positions in Order; both nil when there is none.
func (wp *WindowPostings) Held(ord int32) ([]ID, []int32) {
	if int(ord) >= len(wp.rank) || wp.rank[ord] == absent {
		return nil, nil
	}
	r := wp.rank[ord]
	if r < absent {
		mp := wp.multi[multiBase-r]
		return mp.ids, mp.ranks
	}
	return wp.order[r : r+1 : r+1], wp.rank[ord : ord+1 : ord+1]
}

// Ordinal returns e's index into every WindowPostings of this store,
// assigning the next one when e has none: the table is append-only, so an
// ordinal resolved once stays valid across Add. An EID the store never held
// gets one too — it lies past or reads absent in every window.
func (st *Store) Ordinal(e ids.EID) int32 {
	st.postMu.Lock()
	defer st.postMu.Unlock()
	return st.internLocked(e)
}

// NumOrdinals returns how many EID ordinals the store has assigned.
func (st *Store) NumOrdinals() int {
	st.postMu.Lock()
	defer st.postMu.Unlock()
	return len(st.ords)
}

func (st *Store) internLocked(e ids.EID) int32 {
	ord, ok := st.ords[e]
	if !ok {
		ord = int32(len(st.ords))
		st.ords[e] = ord
	}
	return ord
}

// View returns scenario id as ordinals, building it on the first call for
// id: one intern probe per EID, paid once per store. A scenario's EIDs are
// fixed at Add and ordinals never move, so a view stays valid for the life
// of the store, whatever Add does later. Views are built only for the
// scenarios a match reads — the split's candidates and the padding's picks —
// not for every scenario of a window it touches. Safe for concurrent use with
// itself, Ordinal and Postings, not with Add.
func (st *Store) View(id ID) EView {
	st.postMu.Lock()
	defer st.postMu.Unlock()
	n := int32(len(st.esc[id].EIDs))
	if int(id) < len(st.viewAt) && st.viewAt[id] > 0 {
		lo := st.viewAt[id] - 1
		return EView{Ords: st.viewOrds[lo : lo+n : lo+n], Attrs: st.viewAttrs[lo : lo+n : lo+n]}
	}
	if len(st.viewAt) < len(st.esc) {
		st.viewAt = append(st.viewAt, make([]int32, len(st.esc)-len(st.viewAt))...)
	}
	// Each (ordinal, attribute) pair packed into one sortable key.
	keys := st.viewKeys[:0]
	for e, attr := range st.esc[id].EIDs {
		keys = append(keys, uint64(st.internLocked(e))<<8|uint64(attr))
	}
	slices.Sort(keys)
	lo := int32(len(st.viewOrds))
	for _, k := range keys {
		st.viewOrds = append(st.viewOrds, int32(k>>8))
		st.viewAttrs = append(st.viewAttrs, Attr(k))
	}
	st.viewAt[id], st.viewKeys = lo+1, keys
	// Views handed out earlier keep the arrays they were cut from: the
	// pairs are never rewritten, so growing the slabs moves nothing a
	// reader holds.
	return EView{Ords: st.viewOrds[lo : lo+n : lo+n], Attrs: st.viewAttrs[lo : lo+n : lo+n]}
}

// Postings returns window w's postings, materialising them on first touch by
// one pass over the window's scenarios — one intern probe per inclusive
// (scenario, EID) pair, paid once per store until Add next grows w — and
// reports whether this call did. Safe for concurrent use with itself,
// Ordinal, View and AtWindow (whose own lock is not held while a window is
// built, so scans of other windows never wait behind a build), not with Add.
func (st *Store) Postings(w int) (*WindowPostings, bool) {
	st.postMu.Lock()
	defer st.postMu.Unlock()
	if wp := st.posts[w]; wp != nil {
		return wp, false
	}
	order := st.AtWindow(w)
	if len(order) == 0 {
		return &WindowPostings{}, false // nothing is kept for a window nobody added to
	}
	if len(st.ords) == 0 {
		// The first window interns every EID it holds, and later windows
		// mostly meet the same ones: size the table for it once.
		pairs := 0
		for _, id := range order {
			pairs += len(st.esc[id].EIDs)
		}
		st.ords = make(map[ids.EID]int32, pairs)
	}
	wp := &WindowPostings{order: order, rank: make([]int32, len(st.ords))}
	for i := range wp.rank {
		wp.rank[i] = absent
	}
	for r, id := range order {
		//evlint:ignore maprange each EID's posting depends only on the ranks it appears at, which ascend with the outer loop; ordinals are opaque handles, so the order they are assigned in reaches nothing
		for e, attr := range st.esc[id].EIDs {
			if attr != AttrInclusive {
				continue
			}
			ord := st.internLocked(e)
			if int(ord) == len(wp.rank) { // interned just now
				wp.rank = append(wp.rank, int32(r))
				continue
			}
			switch r0 := wp.rank[ord]; {
			case r0 == absent:
				wp.rank[ord] = int32(r)
			case r0 < absent:
				mp := &wp.multi[multiBase-r0]
				mp.ranks, mp.ids = append(mp.ranks, int32(r)), append(mp.ids, id)
			default:
				wp.rank[ord] = multiBase - int32(len(wp.multi))
				wp.multi = append(wp.multi, multiPosting{ranks: []int32{r0, int32(r)}, ids: []ID{order[r0], id}})
			}
		}
	}
	st.posts[w] = wp
	return wp, true
}
