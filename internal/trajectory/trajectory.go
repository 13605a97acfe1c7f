// Package trajectory materializes the paper's §III data model: within an
// observation period each person has one E-Trajectory (the accumulated
// E-Locations of their device) and multiple V-Trajectory segments (linked
// V-Locations that break on occlusion or missed detections). The builders
// derive both from a scenario store at cell granularity — the "rough"
// locations EV-Matching operates on — for the fused trajectory query
// (internal/fusion).
package trajectory

import (
	"errors"
	"fmt"
	"math"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// Point is one located observation: the center of the cell the identity was
// observed in during one window.
type Point struct {
	Window int
	Cell   geo.CellID
	Pos    geo.Point
	// Vague marks E-observations attributed to the vague zone.
	Vague bool
}

// ETrajectory is the E-Location history of one EID.
type ETrajectory struct {
	EID    ids.EID
	Points []Point // ordered by window
}

// Segment is one contiguous run of V-Locations for a VID.
type Segment struct {
	Points []Point // ordered by window, consecutive-ish
}

// VTrajectory is the V-Location history of one VID, split into segments
// wherever the identity disappears from view for more than the builder's
// gap tolerance (occlusion, missed detection, leaving coverage).
type VTrajectory struct {
	VID      ids.VID
	Segments []Segment
}

// BuildE extracts the E-Trajectory of an EID from the store.
func BuildE(st *scenario.Store, e ids.EID) (*ETrajectory, error) {
	if st == nil {
		return nil, errors.New("trajectory: nil store")
	}
	out := &ETrajectory{EID: e}
	ord := st.Ordinal(e)
	for _, w := range st.Windows() {
		// An EID can be vague in several neighboring cells within one
		// window (drift); keep one point per window, preferring the
		// inclusive sighting over the first vague one.
		var best *Point
		for _, id := range st.AtWindow(w) {
			attr, ok := st.View(id).Attr(ord)
			if !ok {
				continue
			}
			cell := st.Cell(id)
			p := Point{
				Window: w,
				Cell:   cell,
				Pos:    st.Layout().Center(cell),
				Vague:  attr == scenario.AttrVague,
			}
			if attr == scenario.AttrInclusive {
				best = &p
				break
			}
			if best == nil {
				best = &p
			}
		}
		if best != nil {
			out.Points = append(out.Points, *best)
		}
	}
	return out, nil
}

// BuildV extracts the V-Trajectory of a VID from the store, starting a new
// segment whenever the VID is unseen for more than maxGap windows.
func BuildV(st *scenario.Store, v ids.VID, maxGap int) (*VTrajectory, error) {
	if st == nil {
		return nil, errors.New("trajectory: nil store")
	}
	if maxGap < 1 {
		return nil, fmt.Errorf("trajectory: maxGap %d", maxGap)
	}
	out := &VTrajectory{VID: v}
	var current []Point
	lastWindow := math.MinInt
	for _, w := range st.Windows() {
		for _, id := range st.AtWindow(w) {
			vsc := st.V(id)
			if vsc == nil || !vsc.HasVID(v) {
				continue
			}
			p := Point{Window: w, Cell: vsc.Cell, Pos: st.Layout().Center(vsc.Cell)}
			if len(current) > 0 && w-lastWindow > maxGap {
				out.Segments = append(out.Segments, Segment{Points: current})
				current = nil
			}
			current = append(current, p)
			lastWindow = w
			break // one detection placement per window
		}
	}
	if len(current) > 0 {
		out.Segments = append(out.Segments, Segment{Points: current})
	}
	return out, nil
}
