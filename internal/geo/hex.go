package geo

import (
	"fmt"
	"math"
)

// axial is an axial hex-grid coordinate (pointy-top orientation).
type axial struct {
	q int
	r int
}

// hexDirs are the six axial neighbor offsets, in deterministic order.
var hexDirs = [6]axial{
	{q: 1, r: 0}, {q: 1, r: -1}, {q: 0, r: -1},
	{q: -1, r: 0}, {q: -1, r: 1}, {q: 0, r: 1},
}

// HexLayout tiles a rectangular region with pointy-top hexagonal cells, the
// hexagonal-cell discretization shown in the paper's Fig. 1.
type HexLayout struct {
	bounds  Rect
	size    float64 // center-to-corner radius R
	centers []Point // id -> center point
	index   map[axial]CellID
}

// NewHexLayout builds a hex layout over bounds with the given center-to-corner
// radius. Every hex whose center lies within bounds expanded by one radius is
// enumerated, so all in-bounds positions map to a cell.
func NewHexLayout(bounds Rect, size float64) (*HexLayout, error) {
	if size <= 0 || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("%w: size=%f bounds=%+v", ErrBadLayout, size, bounds)
	}
	h := &HexLayout{
		bounds: bounds,
		size:   size,
		index:  make(map[axial]CellID),
	}
	// Enumerate axial coordinates whose centers fall in the expanded bounds.
	expanded := Rect{
		Min: Point{X: bounds.Min.X - size, Y: bounds.Min.Y - size},
		Max: Point{X: bounds.Max.X + size, Y: bounds.Max.Y + size},
	}
	rMin := int(math.Floor(expanded.Min.Y / (1.5 * size)))
	rMax := int(math.Ceil(expanded.Max.Y / (1.5 * size)))
	for r := rMin; r <= rMax; r++ {
		// Solve center X range for this row: x = R*sqrt3*(q + r/2).
		qMin := int(math.Floor(expanded.Min.X/(math.Sqrt(3)*size) - float64(r)/2))
		qMax := int(math.Ceil(expanded.Max.X/(math.Sqrt(3)*size) - float64(r)/2))
		for q := qMin; q <= qMax; q++ {
			a := axial{q: q, r: r}
			c := h.axialCenter(a)
			if !expanded.Contains(c) {
				continue
			}
			h.index[a] = CellID(len(h.centers))
			h.centers = append(h.centers, c)
		}
	}
	if len(h.centers) == 0 {
		return nil, fmt.Errorf("%w: no hex cells cover bounds", ErrBadLayout)
	}
	return h, nil
}

// NewHexWithCells builds a hex layout with approximately numCells cells over
// bounds by sizing the hex radius from the target cell area.
func NewHexWithCells(bounds Rect, numCells int) (*HexLayout, error) {
	if numCells < 1 {
		return nil, fmt.Errorf("%w: numCells=%d", ErrBadLayout, numCells)
	}
	cellArea := bounds.Area() / float64(numCells)
	// Hexagon area = (3*sqrt3/2) * R^2.
	size := math.Sqrt(cellArea * 2 / (3 * math.Sqrt(3)))
	return NewHexLayout(bounds, size)
}

// axialCenter converts axial coordinates to the hex center point.
func (h *HexLayout) axialCenter(a axial) Point {
	return Point{
		X: h.size * math.Sqrt(3) * (float64(a.q) + float64(a.r)/2),
		Y: h.size * 1.5 * float64(a.r),
	}
}

// axialOf converts a point to the axial coordinate of its containing hex,
// using cube rounding.
func (h *HexLayout) axialOf(p Point) axial {
	qf := (math.Sqrt(3)/3*p.X - p.Y/3) / h.size
	rf := (2.0 / 3.0 * p.Y) / h.size
	return roundAxial(qf, rf)
}

// roundAxial rounds fractional axial coordinates to the nearest hex.
func roundAxial(qf, rf float64) axial {
	sf := -qf - rf
	q, r, s := math.Round(qf), math.Round(rf), math.Round(sf)
	dq, dr, ds := math.Abs(q-qf), math.Abs(r-rf), math.Abs(s-sf)
	switch {
	case dq > dr && dq > ds:
		q = -r - s
	case dr > ds:
		r = -q - s
	}
	return axial{q: int(q), r: int(r)}
}

// CellOf implements Layout.
func (h *HexLayout) CellOf(p Point) CellID {
	if !h.bounds.Contains(p) {
		return NoCell
	}
	a := h.axialOf(p)
	if id, ok := h.index[a]; ok {
		return id
	}
	// Edge hexes just outside the enumerated band: snap to the nearest
	// enumerated neighbor.
	best, bestDist := NoCell, math.Inf(1)
	for _, d := range hexDirs {
		n := axial{q: a.q + d.q, r: a.r + d.r}
		if id, ok := h.index[n]; ok {
			if dist := p.Dist(h.centers[id]); dist < bestDist {
				best, bestDist = id, dist
			}
		}
	}
	return best
}

// Center implements Layout.
func (h *HexLayout) Center(c CellID) Point { return h.centers[c] }

// NumCells implements Layout.
func (h *HexLayout) NumCells() int { return len(h.centers) }

// BorderDist implements Layout. For a pointy-top hexagon the distance to the
// border is the inradius minus the largest projection of the offset from the
// center onto the three edge-normal axes (0°, 60°, 120°).
func (h *HexLayout) BorderDist(p Point) float64 {
	c := h.CellOf(p)
	if c == NoCell {
		return 0
	}
	d := p.Sub(h.centers[c])
	inradius := h.size * math.Sqrt(3) / 2
	proj := math.Abs(d.X)
	for _, ang := range [2]float64{math.Pi / 3, 2 * math.Pi / 3} {
		v := math.Abs(d.X*math.Cos(ang) + d.Y*math.Sin(ang))
		if v > proj {
			proj = v
		}
	}
	dist := inradius - proj
	if dist < 0 {
		// Snapped edge cells can place p marginally outside the hex.
		return 0
	}
	return dist
}
