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
	// have been interned by its Add, so they are absent too.
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

// Postings returns window w's postings, materialising them on first touch by
// one pass over the views of the window's scenarios — paid once per store
// until Add next grows w — and reports whether this call did. Safe for
// concurrent use with itself, Ordinal, View and AtWindow (whose own lock is
// not held while a window is built, so scans of other windows never wait
// behind a build), not with Add.
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
	wp := &WindowPostings{order: order, rank: make([]int32, len(st.eids))}
	for i := range wp.rank {
		wp.rank[i] = absent
	}
	for r, id := range order {
		v := st.View(id)
		for k, ord := range v.Ords {
			if v.Attrs[k] != AttrInclusive {
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
