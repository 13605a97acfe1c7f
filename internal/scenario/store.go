package scenario

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// Store indexes the EV-Scenarios of a dataset by ID, by time window and by
// (window, EID), so both the E stage (window-ordered scans, which scenario
// of a window holds an EID) and V stage (fetch the V-Scenario for a selected
// ID) are cheap. It owns the dense ordinals every matcher over it reads EIDs
// and VIDs through (postings.go, vids.go). A scenario's EID set is stored
// once, as its view: Add interns the EIDs and writes them there, and no EID
// map is kept. Add also writes the scenario into its window's postings, so
// no read of them builds, caches or invalidates anything.
type Store struct {
	layout geo.Layout
	at     []where                 // dense, index == int(ID)
	vsc    []*VScenario            // parallel to at; nil when no detections
	wins   map[int]*WindowPostings // window -> its scenarios and postings

	// The EIDs as ordinals (postings.go), shared by every matcher over the
	// store. ords and its reverse eids are append-only: Add interns each
	// scenario's EIDs, Ordinal any EID it is asked for.
	postMu sync.Mutex // guards ords and eids
	ords   map[ids.EID]int32
	eids   []ids.EID
	// Scenario id's view is viewOrds/viewAttrs[viewAt[id]:viewAt[id+1]],
	// written by Add and never rewritten; viewKeys is Add's scratch.
	viewAt    []int32
	viewOrds  []int32
	viewAttrs []Attr
	viewKeys  []uint64

	// The store's VID ordinals (vids.go), shared by every filter over it:
	// filled as the V stage first extracts each scenario, never at Add.
	vidMu   sync.Mutex
	vidOrds map[ids.VID]int32
	detAt   []int32   // scenario ID → 1 + its index in detOrds, 0 before
	detOrds [][]int32 // the VID ordinal of each detection, per scenario
	numVIDs atomic.Int64

	// Out-of-core state (DESIGN.md §14). When a pager is installed, sealed
	// V-Scenario payloads may be evicted: vsc[id] drops to nil, evicted[id]
	// flips, and reads page the payload back in transiently. Evictions are
	// serialized by the owning engine; reads may be concurrent.
	pager   VPager
	evicted []bool // parallel to vsc; true when the payload lives on disk

	pageMu  sync.Mutex
	pageErr error // sticky: first reload failure seen on the legacy V path
}

// where is a stored scenario's place.
type where struct {
	cell   geo.CellID
	window int
}

// VPager reloads an evicted V-Scenario payload from secondary storage.
type VPager interface {
	LoadV(id ID) (*VScenario, error)
}

// NewStore creates an empty store over the given layout.
func NewStore(layout geo.Layout) *Store {
	return &Store{layout: layout, wins: make(map[int]*WindowPostings), ords: make(map[ids.EID]int32),
		viewAt: []int32{0}, vidOrds: make(map[ids.VID]int32)}
}

// Layout returns the cell layout scenarios are defined over.
func (st *Store) Layout() geo.Layout { return st.layout }

// Add registers an EV-Scenario pair — the EID set eids, a list of distinct
// EIDs in any order (a record's, a generator's, a sealed closure's), and its
// V side v — returning the ID it assigns to both. v may be nil when no
// detections were captured in the cell; otherwise its Cell and Window must
// be cell and window. The store keeps the EID set as its view and retains
// neither eids nor a map of it.
func (st *Store) Add(cell geo.CellID, window int, eids []EIDAttr, v *VScenario) (ID, error) {
	st.postMu.Lock()
	keys := st.viewKeys[:0]
	for _, ea := range eids {
		keys = append(keys, st.keyLocked(ea.EID, ea.Attr))
	}
	st.postMu.Unlock()
	return st.add(cell, window, keys, v)
}

// keyLocked interns e and packs its ordinal beside attr into one sortable
// view key. Callers hold postMu.
func (st *Store) keyLocked(e ids.EID, attr Attr) uint64 {
	return uint64(st.internLocked(e))<<8 | uint64(attr)
}

// add stores a scenario whose EID set is keys, appending its view to the
// slabs and posting it in its window: views handed out earlier keep the
// arrays they were cut from, and the pairs are never rewritten, so growing
// the slabs moves nothing a reader holds.
func (st *Store) add(cell geo.CellID, window int, keys []uint64, v *VScenario) (ID, error) {
	st.viewKeys = keys
	if v != nil && (v.Cell != cell || v.Window != window) {
		return NoID, fmt.Errorf("scenario: EV pair mismatch: E(cell %d win %d) vs V(cell %d win %d)",
			cell, window, v.Cell, v.Window)
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i]>>8 == keys[i-1]>>8 {
			return NoID, fmt.Errorf("scenario: EID %q repeated in cell %d window %d", st.eids[keys[i]>>8], cell, window)
		}
	}
	if len(st.viewOrds)+len(keys) > math.MaxInt32 {
		return NoID, fmt.Errorf("scenario: more than %d (scenario, EID) pairs", math.MaxInt32)
	}
	id := ID(len(st.at))
	if v != nil {
		v.ID = id
	}
	for _, k := range keys {
		st.viewOrds = append(st.viewOrds, int32(k>>8))
		st.viewAttrs = append(st.viewAttrs, Attr(k))
	}
	st.viewAt = append(st.viewAt, int32(len(st.viewOrds)))
	st.at = append(st.at, where{cell: cell, window: window})
	st.vsc = append(st.vsc, v)
	st.post(id, cell, window, keys)
	return id, nil
}

// Len returns the number of stored scenario pairs.
func (st *Store) Len() int { return len(st.at) }

// Cell returns the cell of scenario id, which must be stored.
func (st *Store) Cell(id ID) geo.CellID { return st.at[id].cell }

// Window returns the time window of scenario id, which must be stored.
func (st *Store) Window(id ID) int { return st.at[id].window }

// E returns a fresh copy of the E-Scenario with the given ID, its EID map
// built from the view, or nil if out of range. It costs a map per call, and
// no matching path calls it: they read View instead.
func (st *Store) E(id ID) *EScenario {
	if int(id) < 0 || int(id) >= len(st.at) {
		return nil
	}
	v := st.View(id)
	set := make(map[ids.EID]Attr, len(v.Ords))
	st.postMu.Lock()
	for k, o := range v.Ords {
		set[st.eids[o]] = v.Attrs[k]
	}
	st.postMu.Unlock()
	return &EScenario{ID: id, Cell: st.at[id].cell, Window: st.at[id].window, EIDs: set}
}

// AppendEIDAttrs appends scenario id's EID set to buf as a Record lists it,
// (EID, attribute) pairs in ascending EID order.
func (st *Store) AppendEIDAttrs(buf []EIDAttr, id ID) []EIDAttr {
	v := st.View(id)
	base := len(buf)
	st.postMu.Lock()
	for k, o := range v.Ords {
		buf = append(buf, EIDAttr{EID: st.eids[o], Attr: v.Attrs[k]})
	}
	st.postMu.Unlock()
	slices.SortFunc(buf[base:], func(a, b EIDAttr) int { return cmp.Compare(a.EID, b.EID) })
	return buf
}

// V returns the V-Scenario with the given ID, or nil if out of range or no
// detections were captured for that scenario. Evicted payloads are paged
// back in transiently (the store stays within budget); a reload failure is
// recorded in PageErr — callers that can propagate errors should prefer
// VChecked, and the matcher checks PageErr before trusting a report, so a
// failed page-in can never surface as a silently different fingerprint.
func (st *Store) V(id ID) *VScenario {
	v, err := st.VChecked(id)
	if err != nil {
		st.pageMu.Lock()
		if st.pageErr == nil {
			st.pageErr = err
		}
		st.pageMu.Unlock()
		return nil
	}
	return v
}

// VChecked is V with an explicit error: an evicted payload that cannot be
// reloaded returns a wrapped error instead of masquerading as "no
// detections".
func (st *Store) VChecked(id ID) (*VScenario, error) {
	if int(id) < 0 || int(id) >= len(st.vsc) {
		return nil, nil
	}
	if st.evictedAt(id) {
		v, err := st.pager.LoadV(id)
		if err != nil {
			return nil, fmt.Errorf("scenario: page in V %d: %w", id, err)
		}
		return v, nil
	}
	return st.vsc[id], nil
}

// evictedAt reports whether id's payload has been paged out.
func (st *Store) evictedAt(id ID) bool {
	return int(id) < len(st.evicted) && st.evicted[id]
}

// SetVPager installs the reload path for evicted V-Scenario payloads.
// It must be set before the first EvictV.
func (st *Store) SetVPager(p VPager) { st.pager = p }

// EvictV drops the in-memory payload of id, which the installed pager must
// already be able to reload. The caller serializes evictions against reads.
func (st *Store) EvictV(id ID) error {
	if st.pager == nil {
		return fmt.Errorf("scenario: evict V %d: no pager installed", id)
	}
	if int(id) < 0 || int(id) >= len(st.vsc) || st.vsc[id] == nil {
		return fmt.Errorf("scenario: evict V %d: no resident payload", id)
	}
	for len(st.evicted) < len(st.vsc) {
		st.evicted = append(st.evicted, false)
	}
	st.vsc[id] = nil
	st.evicted[id] = true
	return nil
}

// PageErr returns the first reload failure seen by the legacy V accessor,
// or nil. It is sticky: once a page-in has failed, every downstream result
// is suspect and the engine must fail the run.
func (st *Store) PageErr() error {
	st.pageMu.Lock()
	defer st.pageMu.Unlock()
	return st.pageErr
}

// Windows returns the sorted list of time windows that have scenarios.
func (st *Store) Windows() []int {
	out := make([]int, 0, len(st.wins))
	for w := range st.wins {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// AtWindow returns the IDs of scenarios in the given window, sorted by cell,
// ties by ID, as Add keeps them. The slice is shared storage, valid while no
// Add runs; callers must not modify it.
func (st *Store) AtWindow(w int) []ID {
	wp := st.Postings(w)
	if wp.sorted != nil {
		return wp.sorted
	}
	return wp.ids
}

// ShuffledWindows returns all windows in a random order drawn from rng; the
// set-splitting E stage consumes scenarios one random timestamp at a time
// (paper Algorithm 3 preprocess step).
func (st *Store) ShuffledWindows(rng *rand.Rand) []int {
	ws := st.Windows()
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}
