// Package viz renders an EV world as a standalone SVG: the cell layout
// (grid or hexagonal, as in the paper's Fig. 1), selected person
// trajectories, and — when a matching report is supplied —
// the matched EID→VID pairs as labeled tracks. It is a debugging and
// presentation aid; everything is plain SVG 1.1 with no external assets.
package viz

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"evmatching/internal/dataset"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/trajectory"
)

// Options selects what to draw.
type Options struct {
	// Size is the output edge length in pixels; 0 means 800.
	Size int
	// Persons lists person indexes whose true (visual) trajectories to
	// draw; empty draws none.
	Persons []int
	// EIDs lists device identities whose E-trajectories to draw.
	EIDs []ids.EID
}

// palette cycles through visually distinct track colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#17becf", "#8c564b", "#e377c2",
}

// Render writes the SVG document to w.
func Render(w io.Writer, ds *dataset.Dataset, opts Options) error {
	if ds == nil {
		return errors.New("viz: nil dataset")
	}
	size := opts.Size
	if size <= 0 {
		size = 800
	}
	bounds := ds.Layout.Bounds()
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return errors.New("viz: empty layout bounds")
	}
	scale := float64(size) / math.Max(bounds.Width(), bounds.Height())
	tx := func(p geo.Point) (float64, float64) {
		// SVG y grows downward; flip so north is up.
		return (p.X - bounds.Min.X) * scale, float64(size) - (p.Y-bounds.Min.Y)*scale
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		size, size, size, size)
	sb.WriteString(`<rect width="100%" height="100%" fill="#fafafa"/>` + "\n")

	drawCells(&sb, ds, tx)
	color := 0
	for _, idx := range opts.Persons {
		if idx < 0 || idx >= len(ds.Persons) {
			return fmt.Errorf("viz: person index %d out of range", idx)
		}
		vt, err := trajectory.BuildV(ds.Store, ds.Persons[idx].VID, 2)
		if err != nil {
			return err
		}
		for _, seg := range vt.Segments {
			drawTrack(&sb, pointsOf(seg.Points), tx, palette[color%len(palette)], false)
		}
		labelTrack(&sb, vt, tx, fmt.Sprintf("person %d", idx), palette[color%len(palette)])
		color++
	}
	for _, e := range opts.EIDs {
		et, err := trajectory.BuildE(ds.Store, e)
		if err != nil {
			return err
		}
		drawTrack(&sb, pointsOf(et.Points), tx, palette[color%len(palette)], true)
		if len(et.Points) > 0 {
			x, y := tx(et.Points[0].Pos)
			fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="11" fill="%s">%s</text>`+"\n",
				x+5, y-5, palette[color%len(palette)], e)
		}
		color++
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// drawCells outlines every cell by sampling its membership; cells are drawn
// through their centers as light crosses plus the overall border, which
// renders both grid and hex layouts without layout-specific geometry.
func drawCells(sb *strings.Builder, ds *dataset.Dataset, tx func(geo.Point) (float64, float64)) {
	if grid, ok := ds.Layout.(*geo.GridLayout); ok {
		for c := geo.CellID(0); int(c) < grid.NumCells(); c++ {
			r := grid.CellRect(c)
			x0, y0 := tx(geo.Pt(r.Min.X, r.Max.Y))
			x1, y1 := tx(geo.Pt(r.Max.X, r.Min.Y))
			fmt.Fprintf(sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#ccc"/>`+"\n",
				x0, y0, x1-x0, y1-y0)
		}
		return
	}
	if hex, ok := ds.Layout.(*geo.HexLayout); ok {
		for c := geo.CellID(0); int(c) < hex.NumCells(); c++ {
			center := hex.Center(c)
			var pts []string
			for k := 0; k < 6; k++ {
				ang := math.Pi/6 + float64(k)*math.Pi/3 // pointy-top corners
				x, y := tx(geo.Pt(
					center.X+hex.Size()*math.Cos(ang),
					center.Y+hex.Size()*math.Sin(ang),
				))
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
			}
			fmt.Fprintf(sb, `<polygon points="%s" fill="none" stroke="#ccc"/>`+"\n", strings.Join(pts, " "))
		}
		return
	}
	// Unknown layout: draw only the outer border.
	b := ds.Layout.Bounds()
	x0, y0 := tx(geo.Pt(b.Min.X, b.Max.Y))
	x1, y1 := tx(geo.Pt(b.Max.X, b.Min.Y))
	fmt.Fprintf(sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#999"/>`+"\n",
		x0, y0, x1-x0, y1-y0)
}

func pointsOf(pts []trajectory.Point) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Pos
	}
	return out
}

// drawTrack renders one polyline with endpoint dots; dashed tracks mark
// E-trajectories (coarse, estimated) versus solid V-trajectories.
func drawTrack(sb *strings.Builder, pts []geo.Point, tx func(geo.Point) (float64, float64), color string, dashed bool) {
	if len(pts) == 0 {
		return
	}
	coords := make([]string, len(pts))
	for i, p := range pts {
		x, y := tx(p)
		coords[i] = fmt.Sprintf("%.1f,%.1f", x, y)
	}
	dash := ""
	if dashed {
		dash = ` stroke-dasharray="6,4"`
	}
	fmt.Fprintf(sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
		strings.Join(coords, " "), color, dash)
	x, y := tx(pts[0])
	fmt.Fprintf(sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", x, y, color)
	x, y = tx(pts[len(pts)-1])
	fmt.Fprintf(sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s" stroke="#000"/>`+"\n", x, y, color)
}

func labelTrack(sb *strings.Builder, vt *trajectory.VTrajectory, tx func(geo.Point) (float64, float64), label, color string) {
	for _, seg := range vt.Segments {
		if len(seg.Points) > 0 {
			x, y := tx(seg.Points[0].Pos)
			fmt.Fprintf(sb, `<text x="%.1f" y="%.1f" font-size="11" fill="%s">%s</text>`+"\n",
				x+5, y+12, color, label)
			return
		}
	}
}
