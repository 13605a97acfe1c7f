package geo

import (
	"errors"
	"fmt"
	"math"
)

// CellID identifies one cell (one scenario region) within a Layout.
type CellID int

// NoCell is returned by CellOf for positions outside the layout bounds.
const NoCell CellID = -1

// ErrBadLayout reports an invalid layout construction parameter.
var ErrBadLayout = errors.New("geo: invalid layout parameters")

// Layout discretizes the surveilled region into cells. A cell is the spatial
// footprint of one EV-Scenario (paper Definition 1): the area covered by one
// camera, one room, or one uniform tile of the combined camera view.
type Layout interface {
	// CellOf returns the cell containing p, or NoCell if p is out of bounds.
	CellOf(p Point) CellID
	// Center returns the center of cell c.
	Center(c CellID) Point
	// NumCells returns the number of cells in the layout.
	NumCells() int
	// BorderDist returns the distance from p to the border of its own cell.
	// The practical setting classifies positions with BorderDist below the
	// vague-zone width as vague (paper Fig. 2).
	BorderDist(p Point) float64
}

// Compile-time interface compliance checks.
var (
	_ Layout = (*GridLayout)(nil)
	_ Layout = (*HexLayout)(nil)
)

// GridLayout tiles a rectangular region with a Cols × Rows uniform grid.
type GridLayout struct {
	bounds Rect
	cols   int
	rows   int
	cellW  float64
	cellH  float64
}

// NewGridLayout builds a grid layout over bounds with the given cell counts.
func NewGridLayout(bounds Rect, cols, rows int) (*GridLayout, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("%w: cols=%d rows=%d", ErrBadLayout, cols, rows)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("%w: empty bounds %+v", ErrBadLayout, bounds)
	}
	return &GridLayout{
		bounds: bounds,
		cols:   cols,
		rows:   rows,
		cellW:  bounds.Width() / float64(cols),
		cellH:  bounds.Height() / float64(rows),
	}, nil
}

// NewSquareGrid builds an approximately square grid with at least numCells
// cells over bounds. Experiments use it to sweep density: with n persons and
// density d persons/cell the region is cut into about n/d cells.
func NewSquareGrid(bounds Rect, numCells int) (*GridLayout, error) {
	if numCells < 1 {
		return nil, fmt.Errorf("%w: numCells=%d", ErrBadLayout, numCells)
	}
	aspect := bounds.Width() / bounds.Height()
	cols := int(math.Ceil(math.Sqrt(float64(numCells) * aspect)))
	if cols < 1 {
		cols = 1
	}
	rows := (numCells + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	return NewGridLayout(bounds, cols, rows)
}

// CellOf implements Layout.
func (g *GridLayout) CellOf(p Point) CellID {
	if !g.bounds.Contains(p) {
		return NoCell
	}
	col := int((p.X - g.bounds.Min.X) / g.cellW)
	row := int((p.Y - g.bounds.Min.Y) / g.cellH)
	// Guard against floating-point edge effects on the max border.
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return CellID(row*g.cols + col)
}

// Center implements Layout.
func (g *GridLayout) Center(c CellID) Point {
	return g.CellRect(c).Center()
}

// CellRect returns the rectangle of cell c.
func (g *GridLayout) CellRect(c CellID) Rect {
	row, col := int(c)/g.cols, int(c)%g.cols
	min := Point{
		X: g.bounds.Min.X + float64(col)*g.cellW,
		Y: g.bounds.Min.Y + float64(row)*g.cellH,
	}
	return Rect{Min: min, Max: Point{X: min.X + g.cellW, Y: min.Y + g.cellH}}
}

// NumCells implements Layout.
func (g *GridLayout) NumCells() int { return g.cols * g.rows }

// BorderDist implements Layout.
func (g *GridLayout) BorderDist(p Point) float64 {
	c := g.CellOf(p)
	if c == NoCell {
		return 0
	}
	return g.CellRect(c).BorderDist(p)
}
