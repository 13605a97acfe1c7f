// Package fusion is the payoff of EV-Matching (paper §I): once EIDs and VIDs
// are matched — after universal labeling, each VID in the whole video corpus
// carries its EID — the two heterogeneous datasets can be fused and queried
// together. One single query retrieves both the electronic and the visual
// information for a person: where a device holder appeared on camera, which
// devices the people visible in a cell were carrying, and the fused
// trajectory combining E- and V-locations.
package fusion

import (
	"errors"
	"fmt"
	"sort"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/trajectory"
)

// Errors returned by index queries.
var (
	ErrUnknownEID = errors.New("fusion: EID not in index")
	ErrUnknownVID = errors.New("fusion: VID not in index")
)

// Index is the bidirectional EID↔VID mapping produced by a matching run,
// bound to the dataset it was computed over.
type Index struct {
	ds      *dataset.Dataset
	vidOf   map[ids.EID]ids.VID
	eidOf   map[ids.VID]ids.EID
	confide map[ids.EID]float64
}

// BuildIndex folds a matching report into a fused-query index. Unmatched
// EIDs are omitted; when several EIDs claim one VID, the higher-probability
// match wins (matching normally prevents this via rule-out, but reports from
// refining-disabled runs may conflict).
func BuildIndex(ds *dataset.Dataset, rep *core.Report) (*Index, error) {
	if ds == nil || rep == nil {
		return nil, errors.New("fusion: nil dataset or report")
	}
	idx := &Index{
		ds:      ds,
		vidOf:   make(map[ids.EID]ids.VID, len(rep.Results)),
		eidOf:   make(map[ids.VID]ids.EID, len(rep.Results)),
		confide: make(map[ids.EID]float64, len(rep.Results)),
	}
	// Deterministic fold order.
	targets := append([]ids.EID(nil), rep.Targets...)
	ids.SortEIDs(targets)
	for _, e := range targets {
		res, ok := rep.Results[e]
		if !ok || res.VID == ids.NoVID {
			continue
		}
		if prev, taken := idx.eidOf[res.VID]; taken {
			if rep.Results[prev].Probability >= res.Probability {
				continue
			}
			delete(idx.vidOf, prev)
			delete(idx.confide, prev)
		}
		idx.vidOf[e] = res.VID
		idx.eidOf[res.VID] = e
		idx.confide[e] = res.MajorityFrac
	}
	return idx, nil
}

// Len returns the number of matched pairs in the index.
func (x *Index) Len() int { return len(x.vidOf) }

// VIDOf returns the visual identity matched to an EID.
func (x *Index) VIDOf(e ids.EID) (ids.VID, error) {
	v, ok := x.vidOf[e]
	if !ok {
		return ids.NoVID, fmt.Errorf("%w: %s", ErrUnknownEID, e)
	}
	return v, nil
}

// EIDOf returns the device identity matched to a VID.
func (x *Index) EIDOf(v ids.VID) (ids.EID, error) {
	e, ok := x.eidOf[v]
	if !ok {
		return ids.None, fmt.Errorf("%w: %s", ErrUnknownVID, v)
	}
	return e, nil
}

// Confidence returns the vote fraction behind an EID's match.
func (x *Index) Confidence(e ids.EID) (float64, error) {
	c, ok := x.confide[e]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownEID, e)
	}
	return c, nil
}

// Sighting is one fused observation of a person: where they were, in which
// window, and through which modality they were seen.
type Sighting struct {
	Window int
	Cell   geo.CellID
	Pos    geo.Point
	// Electronic and Visual report which modality observed the person in
	// this window; fusion's value is that either one suffices.
	Electronic bool
	Visual     bool
}

// FusedTrajectory merges the EID's E-Trajectory with its matched VID's
// V-Trajectory into one sighting list — the single query that used to take
// two separate systems (paper §I).
func (x *Index) FusedTrajectory(e ids.EID) ([]Sighting, error) {
	v, err := x.VIDOf(e)
	if err != nil {
		return nil, err
	}
	et, err := trajectory.BuildE(x.ds.Store, e)
	if err != nil {
		return nil, err
	}
	vt, err := trajectory.BuildV(x.ds.Store, v, 1)
	if err != nil {
		return nil, err
	}
	byWindow := make(map[int]*Sighting)
	for _, p := range et.Points {
		byWindow[p.Window] = &Sighting{
			Window: p.Window, Cell: p.Cell, Pos: p.Pos, Electronic: true,
		}
	}
	for _, seg := range vt.Segments {
		for _, p := range seg.Points {
			if s, ok := byWindow[p.Window]; ok {
				s.Visual = true
				// Camera placement is ground truth for position; prefer it
				// over the noisy electronic cell when both exist.
				s.Cell, s.Pos = p.Cell, p.Pos
			} else {
				byWindow[p.Window] = &Sighting{
					Window: p.Window, Cell: p.Cell, Pos: p.Pos, Visual: true,
				}
			}
		}
	}
	out := make([]Sighting, 0, len(byWindow))
	for _, s := range byWindow {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window < out[j].Window })
	return out, nil
}

// Presence is one identity seen in a queried cell and window.
type Presence struct {
	EID ids.EID // ids.None when only seen visually and not matched
	VID ids.VID // ids.NoVID when only seen electronically and not matched
}

// WhoWasAt returns everyone observed in the cell during the window, fusing
// both modalities: device holders get their matched VID attached and
// detected persons get their matched EID attached.
func (x *Index) WhoWasAt(cell geo.CellID, window int) ([]Presence, error) {
	byEID := make(map[ids.EID]*Presence)
	byVID := make(map[ids.VID]*Presence)
	var out []*Presence
	var eids []scenario.EIDAttr
	for _, id := range x.ds.Store.AtWindow(window) {
		if x.ds.Store.Cell(id) != cell {
			continue
		}
		eids = x.ds.Store.AppendEIDAttrs(eids[:0], id)
		for _, ea := range eids {
			e := ea.EID
			p := &Presence{EID: e}
			if v, ok := x.vidOf[e]; ok {
				p.VID = v
				byVID[v] = p
			}
			byEID[e] = p
			out = append(out, p)
		}
		if vsc := x.ds.Store.V(id); vsc != nil {
			for _, v := range vsc.VIDs() {
				if _, seen := byVID[v]; seen {
					continue // already fused through the EID side
				}
				p := &Presence{VID: v}
				if e, ok := x.eidOf[v]; ok {
					if existing, seen := byEID[e]; seen {
						existing.VID = v
						continue
					}
					p.EID = e
				}
				byVID[v] = p
				out = append(out, p)
			}
		}
		break // one scenario per (cell, window)
	}
	res := make([]Presence, 0, len(out))
	for _, p := range out {
		res = append(res, *p)
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].EID != res[j].EID {
			return res[i].EID < res[j].EID
		}
		return res[i].VID < res[j].VID
	})
	return res, nil
}

// WhereWas returns the person's fused location during one window, if either
// modality observed them.
func (x *Index) WhereWas(e ids.EID, window int) (Sighting, bool, error) {
	sightings, err := x.FusedTrajectory(e)
	if err != nil {
		return Sighting{}, false, err
	}
	for _, s := range sightings {
		if s.Window == window {
			return s, true, nil
		}
	}
	return Sighting{}, false, nil
}
