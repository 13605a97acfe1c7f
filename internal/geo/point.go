// Package geo provides the planar geometry primitives used by the EV-Matching
// simulation: points and rectangles in meters, and cell layouts (uniform grid
// and hexagonal) that discretize the surveilled region into scenarios.
//
// A Layout maps positions to CellIDs and reports the distance from a position
// to its cell border, which the practical-setting algorithm uses to place EIDs
// in the inclusive or vague zone of a scenario (paper §IV-C, Fig. 2).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the surveilled region, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, closed on the Min side and open on the
// Max side so that adjacent rects tile the plane without overlap.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// Square returns the axis-aligned square with the given origin and side.
func Square(origin Point, side float64) Rect {
	return Rect{Min: origin, Max: Point{X: origin.X + side, Y: origin.Y + side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies in r (Min-closed, Max-open).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Clamp returns p constrained to lie within r (treating r as closed); the
// mobility model uses it to keep trajectories inside the region.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// BorderDist returns the distance from p to the nearest edge of r. It is
// negative if p lies outside r.
func (r Rect) BorderDist(p Point) float64 {
	dx := math.Min(p.X-r.Min.X, r.Max.X-p.X)
	dy := math.Min(p.Y-r.Min.Y, r.Max.Y-p.Y)
	return math.Min(dx, dy)
}
