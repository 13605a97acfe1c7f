package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
)

// Store indexes the EV-Scenarios of a dataset by ID, by time window and by
// (window, EID), so both the E stage (window-ordered scans, which scenario
// of a window holds an EID) and V stage (fetch the V-Scenario for a selected
// ID) are cheap.
type Store struct {
	layout geo.Layout
	esc    []*EScenario // dense, index == int(ID)
	vsc    []*VScenario // parallel to esc; nil when no detections
	byWin  map[int][]ID // window -> scenario IDs, in insertion order

	mu        sync.Mutex   // guards winSorted
	winSorted map[int][]ID // cache of AtWindow's cell-sorted ID lists

	// The exact (window, EID) postings (postings.go), shared by every matcher
	// over the store. ords is append-only and filled as windows are first
	// touched, never at Add; posts holds the touched windows and loses
	// exactly the window Add grows.
	postMu sync.Mutex
	ords   map[ids.EID]int32
	posts  map[int]*WindowPostings

	// Out-of-core state (DESIGN.md §14). When a pager is installed, sealed
	// V-Scenario payloads may be evicted: vsc[id] drops to nil, evicted[id]
	// flips, and reads page the payload back in transiently. Evictions are
	// serialized by the owning engine; reads may be concurrent.
	pager   VPager
	evicted []bool // parallel to vsc; true when the payload lives on disk

	pageMu  sync.Mutex
	pageErr error // sticky: first reload failure seen on the legacy V path
}

// VPager reloads an evicted V-Scenario payload from secondary storage.
type VPager interface {
	LoadV(id ID) (*VScenario, error)
}

// NewStore creates an empty store over the given layout.
func NewStore(layout geo.Layout) *Store {
	return &Store{layout: layout, byWin: make(map[int][]ID), winSorted: make(map[int][]ID),
		ords: make(map[ids.EID]int32), posts: make(map[int]*WindowPostings)}
}

// Layout returns the cell layout scenarios are defined over.
func (st *Store) Layout() geo.Layout { return st.layout }

// Add registers an EV-Scenario pair, assigning and returning its ID. The
// VScenario may be nil when no detections were captured in the cell. The
// pair's Cell and Window must agree.
func (st *Store) Add(e *EScenario, v *VScenario) (ID, error) {
	if e == nil {
		return NoID, fmt.Errorf("scenario: nil E-Scenario")
	}
	if v != nil && (v.Cell != e.Cell || v.Window != e.Window) {
		return NoID, fmt.Errorf("scenario: EV pair mismatch: E(cell %d win %d) vs V(cell %d win %d)",
			e.Cell, e.Window, v.Cell, v.Window)
	}
	id := ID(len(st.esc))
	e.ID = id
	if v != nil {
		v.ID = id
	}
	st.esc = append(st.esc, e)
	st.vsc = append(st.vsc, v)
	st.byWin[e.Window] = append(st.byWin[e.Window], id)
	st.mu.Lock()
	delete(st.winSorted, e.Window) // invalidate the window's sorted cache
	st.mu.Unlock()
	st.postMu.Lock()
	delete(st.posts, e.Window) // and its postings, which rank into that list
	st.postMu.Unlock()
	return id, nil
}

// Len returns the number of stored scenario pairs.
func (st *Store) Len() int { return len(st.esc) }

// E returns the E-Scenario with the given ID, or nil if out of range.
func (st *Store) E(id ID) *EScenario {
	if int(id) < 0 || int(id) >= len(st.esc) {
		return nil
	}
	return st.esc[id]
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
	out := make([]int, 0, len(st.byWin))
	for w := range st.byWin {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// AtWindow returns the IDs of scenarios in the given window, sorted by cell.
// The sorted list is computed once per window and cached until the window
// gains a scenario; the returned slice is shared, so callers must not modify
// it.
func (st *Store) AtWindow(w int) []ID {
	st.mu.Lock()
	if cached, ok := st.winSorted[w]; ok {
		st.mu.Unlock()
		return cached
	}
	st.mu.Unlock()
	idsAt := st.byWin[w]
	out := make([]ID, len(idsAt))
	copy(out, idsAt)
	sort.Slice(out, func(i, j int) bool { return st.esc[out[i]].Cell < st.esc[out[j]].Cell })
	st.mu.Lock()
	if st.winSorted == nil {
		st.winSorted = make(map[int][]ID)
	}
	st.winSorted[w] = out
	st.mu.Unlock()
	return out
}

// ShuffledWindows returns all windows in a random order drawn from rng; the
// set-splitting E stage consumes scenarios one random timestamp at a time
// (paper Algorithm 3 preprocess step).
func (st *Store) ShuffledWindows(rng *rand.Rand) []int {
	ws := st.Windows()
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}
