package geo

import (
	"math/rand"
	"testing"
)

func TestNewGridLayoutValidation(t *testing.T) {
	bounds := Square(Pt(0, 0), 100)
	if _, err := NewGridLayout(bounds, 0, 3); err == nil {
		t.Error("want error for zero cols")
	}
	if _, err := NewGridLayout(Rect{}, 2, 2); err == nil {
		t.Error("want error for empty bounds")
	}
	g, err := NewGridLayout(bounds, 4, 5)
	if err != nil {
		t.Fatalf("NewGridLayout: %v", err)
	}
	if g.NumCells() != 20 || g.Cols() != 4 || g.Rows() != 5 {
		t.Errorf("got %d cells (%dx%d), want 20 (4x5)", g.NumCells(), g.Cols(), g.Rows())
	}
}

func TestGridCellOfAndCenterRoundTrip(t *testing.T) {
	g, err := NewGridLayout(Square(Pt(0, 0), 1000), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for c := CellID(0); int(c) < g.NumCells(); c++ {
		if got := g.CellOf(g.Center(c)); got != c {
			t.Fatalf("CellOf(Center(%d)) = %d", c, got)
		}
	}
}

func TestGridCellOfOutOfBounds(t *testing.T) {
	g, _ := NewGridLayout(Square(Pt(0, 0), 100), 2, 2)
	if got := g.CellOf(Pt(-1, 50)); got != NoCell {
		t.Errorf("CellOf outside = %d, want NoCell", got)
	}
	if got := g.CellOf(Pt(100, 100)); got != NoCell {
		t.Errorf("CellOf max corner = %d, want NoCell (max-open)", got)
	}
}

func TestGridBorderDist(t *testing.T) {
	g, _ := NewGridLayout(Square(Pt(0, 0), 100), 2, 2)
	// Cell 0 spans [0,50)x[0,50); its center is 25 from every border.
	if got := g.BorderDist(Pt(25, 25)); got != 25 {
		t.Errorf("center BorderDist = %v, want 25", got)
	}
	if got := g.BorderDist(Pt(48, 25)); got != 2 {
		t.Errorf("near-border BorderDist = %v, want 2", got)
	}
	if got := g.BorderDist(Pt(-5, -5)); got != 0 {
		t.Errorf("out-of-bounds BorderDist = %v, want 0", got)
	}
}

func TestGridNeighbors(t *testing.T) {
	g, _ := NewGridLayout(Square(Pt(0, 0), 90), 3, 3)
	tests := []struct {
		cell CellID
		want int
	}{
		{cell: 4, want: 4}, // center
		{cell: 0, want: 2}, // corner
		{cell: 1, want: 3}, // edge
	}
	for _, tt := range tests {
		if got := g.Neighbors(tt.cell); len(got) != tt.want {
			t.Errorf("Neighbors(%d) = %v, want %d cells", tt.cell, got, tt.want)
		}
	}
}

func TestNewSquareGridCellCount(t *testing.T) {
	bounds := Square(Pt(0, 0), 1000)
	for _, want := range []int{1, 5, 10, 33, 100} {
		g, err := NewSquareGrid(bounds, want)
		if err != nil {
			t.Fatalf("NewSquareGrid(%d): %v", want, err)
		}
		if g.NumCells() < want {
			t.Errorf("NumCells = %d, want >= %d", g.NumCells(), want)
		}
		if g.NumCells() > 2*want+2 {
			t.Errorf("NumCells = %d, too far above target %d", g.NumCells(), want)
		}
	}
}

func TestLayoutsCoverBounds(t *testing.T) {
	bounds := Square(Pt(0, 0), 500)
	grid, err := NewGridLayout(bounds, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := NewHexWithCells(bounds, 49)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, l := range []Layout{grid, hex} {
		for i := 0; i < 2000; i++ {
			p := Pt(rng.Float64()*500, rng.Float64()*500)
			c := l.CellOf(p)
			if c == NoCell {
				t.Fatalf("%T: in-bounds point %v has no cell", l, p)
			}
			if int(c) < 0 || int(c) >= l.NumCells() {
				t.Fatalf("%T: cell %d out of range [0,%d)", l, c, l.NumCells())
			}
		}
	}
}

func TestHexCellOfCenterRoundTrip(t *testing.T) {
	h, err := NewHexLayout(Square(Pt(0, 0), 400), 40)
	if err != nil {
		t.Fatal(err)
	}
	for c := CellID(0); int(c) < h.NumCells(); c++ {
		center := h.Center(c)
		if !h.bounds.Contains(center) {
			continue // edge hexes can center outside bounds
		}
		if got := h.CellOf(center); got != c {
			t.Fatalf("CellOf(Center(%d)) = %d", c, got)
		}
	}
}

func TestHexWithCellsApproximatesTarget(t *testing.T) {
	bounds := Square(Pt(0, 0), 1000)
	for _, want := range []int{10, 30, 100} {
		h, err := NewHexWithCells(bounds, want)
		if err != nil {
			t.Fatalf("NewHexWithCells(%d): %v", want, err)
		}
		// Edge padding makes the count overshoot; allow a generous band.
		if h.NumCells() < want || h.NumCells() > 3*want+20 {
			t.Errorf("NumCells = %d for target %d", h.NumCells(), want)
		}
	}
}

func TestHexBorderDistWithinInradius(t *testing.T) {
	h, err := NewHexLayout(Square(Pt(0, 0), 300), 30)
	if err != nil {
		t.Fatal(err)
	}
	inradius := h.Size() * 0.8660254038
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p := Pt(rng.Float64()*300, rng.Float64()*300)
		d := h.BorderDist(p)
		if d < 0 || d > inradius+1e-9 {
			t.Fatalf("BorderDist(%v) = %v, want in [0, %v]", p, d, inradius)
		}
	}
	// A hex center is exactly the inradius away from its border.
	for c := CellID(0); int(c) < h.NumCells(); c++ {
		center := h.Center(c)
		if !h.bounds.Contains(center) {
			continue
		}
		if d := h.BorderDist(center); d < inradius-1e-6 || d > inradius+1e-6 {
			t.Fatalf("center BorderDist = %v, want %v", d, inradius)
		}
	}
}

func TestHexNeighborsAreMutual(t *testing.T) {
	h, err := NewHexLayout(Square(Pt(0, 0), 300), 35)
	if err != nil {
		t.Fatal(err)
	}
	for c := CellID(0); int(c) < h.NumCells(); c++ {
		for _, n := range h.Neighbors(c) {
			found := false
			for _, back := range h.Neighbors(n) {
				if back == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not mutual: %d -> %d", c, n)
			}
		}
	}
}

func TestHexLayoutValidation(t *testing.T) {
	if _, err := NewHexLayout(Square(Pt(0, 0), 100), 0); err == nil {
		t.Error("want error for zero size")
	}
	if _, err := NewHexWithCells(Square(Pt(0, 0), 100), 0); err == nil {
		t.Error("want error for zero cells")
	}
}

func TestGridCellRectsTileBounds(t *testing.T) {
	g, err := NewGridLayout(Square(Pt(0, 0), 120), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var area float64
	for c := CellID(0); int(c) < g.NumCells(); c++ {
		area += g.CellRect(c).Area()
	}
	if diff := area - g.Bounds().Area(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cell areas sum to %v, bounds area %v", area, g.Bounds().Area())
	}
}
