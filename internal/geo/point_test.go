package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Errorf("Add = %v, want (4, 2)", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Errorf("Sub = %v, want (2, 6)", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v, want (6, 8)", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Pt(0, 0).Dist(p); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestPointLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5, 10)", got)
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		if math.IsInf(d1, 1) || math.IsNaN(d1) {
			return math.IsInf(d2, 1) || math.IsNaN(d2)
		}
		return math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectContains(t *testing.T) {
	r := Square(Pt(0, 0), 10)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{name: "interior", p: Pt(5, 5), want: true},
		{name: "min corner closed", p: Pt(0, 0), want: true},
		{name: "max corner open", p: Pt(10, 10), want: false},
		{name: "max x open", p: Pt(10, 5), want: false},
		{name: "outside", p: Pt(-1, 5), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{Max: Pt(4, 2)}
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("got w=%v h=%v area=%v", r.Width(), r.Height(), r.Area())
	}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v, want (2, 1)", got)
	}
}

func TestRectClamp(t *testing.T) {
	r := Square(Pt(0, 0), 10)
	if got := r.Clamp(Pt(-5, 15)); got != Pt(0, 10) {
		t.Errorf("Clamp = %v, want (0, 10)", got)
	}
	if got := r.Clamp(Pt(3, 4)); got != Pt(3, 4) {
		t.Errorf("Clamp interior moved point to %v", got)
	}
}

func TestRectBorderDist(t *testing.T) {
	r := Square(Pt(0, 0), 10)
	if got := r.BorderDist(Pt(5, 5)); got != 5 {
		t.Errorf("center BorderDist = %v, want 5", got)
	}
	if got := r.BorderDist(Pt(1, 5)); got != 1 {
		t.Errorf("near-edge BorderDist = %v, want 1", got)
	}
	if got := r.BorderDist(Pt(0, 5)); got != 0 {
		t.Errorf("on-edge BorderDist = %v, want 0", got)
	}
	if got := r.BorderDist(Pt(-2, 5)); got >= 0 {
		t.Errorf("outside BorderDist = %v, want negative", got)
	}
}

func TestRectClampAlwaysInside(t *testing.T) {
	r := Square(Pt(0, 0), 100)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		p := r.Clamp(Pt(x, y))
		return p.X >= 0 && p.X <= 100 && p.Y >= 0 && p.Y <= 100
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
