package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("norm after Normalize = %v", v.Norm())
	}
	zero := Vector{0, 0}
	zero.Normalize()
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero vector changed by Normalize: %v", zero)
	}
}

func TestDistBounds(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{-1, 0}
	d, err := Dist(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("antipodal unit vectors dist = %v, want 1", d)
	}
	d, err = Dist(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self dist = %v, want 0", d)
	}
}

func TestDistDimMismatch(t *testing.T) {
	if _, err := Dist(Vector{1}, Vector{1, 0}); err == nil {
		t.Error("want dimension-mismatch error")
	}
	if _, err := Sim(Vector{1}, Vector{1, 0}); err == nil {
		t.Error("want dimension-mismatch error from Sim")
	}
}

func TestSimProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomUnit(r, 32), randomUnit(r, 32)
		sab, err1 := Sim(a, b)
		sba, err2 := Sim(b, a)
		saa, err3 := Sim(a, a)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return sab >= 0 && sab <= 1 &&
			math.Abs(sab-sba) < 1e-12 &&
			math.Abs(saa-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPerturbSmallSigmaStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := randomUnit(rng, 64)
	obs := Perturb(base, 0.02, rng)
	s, err := Sim(base, obs)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.85 {
		t.Errorf("small-noise observation sim = %v, want > 0.85", s)
	}
	if math.Abs(obs.Norm()-1) > 1e-9 {
		t.Errorf("perturbed vector not unit norm: %v", obs.Norm())
	}
}

func TestPerturbZeroSigmaIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randomUnit(rng, 16)
	obs := Perturb(base, 0, rng)
	for i := range base {
		if obs[i] != base[i] {
			t.Fatalf("zero-sigma perturb changed component %d", i)
		}
	}
	obs[0] = 99
	if base[0] == 99 {
		t.Error("Perturb aliases the input vector")
	}
}

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("want error for empty mean")
	}
	if _, err := Mean([]Vector{{1, 0}, {1}}); err == nil {
		t.Error("want error for mismatched dims")
	}
	m, err := Mean([]Vector{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(2)
	if math.Abs(m[0]-want) > 1e-12 || math.Abs(m[1]-want) > 1e-12 {
		t.Errorf("Mean = %v, want (%v, %v)", m, want, want)
	}
}

func TestGallerySeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := NewGallery(rng, 200, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 200 || g.Dim() != 64 {
		t.Fatalf("gallery %dx%d", g.Len(), g.Dim())
	}
	// Same-person observations must be far more similar than cross-person
	// base vectors, giving the matcher its working margin.
	var crossMax float64
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			s, err := Sim(g.Base(i), g.Base(j))
			if err != nil {
				t.Fatal(err)
			}
			if s > crossMax {
				crossMax = s
			}
		}
	}
	var sameMin float64 = 1
	for i := 0; i < 50; i++ {
		obs := g.Observe(i, 0.03, rng)
		s, err := Sim(g.Base(i), obs)
		if err != nil {
			t.Fatal(err)
		}
		if s < sameMin {
			sameMin = s
		}
	}
	if sameMin <= crossMax {
		t.Errorf("no margin: same-person min sim %v <= cross-person max sim %v", sameMin, crossMax)
	}
}

func TestNewGalleryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGallery(rng, 0, 8); err == nil {
		t.Error("want error for zero persons")
	}
	if _, err := NewGallery(rng, 5, 1); err == nil {
		t.Error("want error for dim < 2")
	}
}

func TestPatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := NewGallery(rng, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	ex := Extractor{Dim: 64}
	for i := 0; i < 10; i++ {
		obs := g.Observe(i, 0.02, rng)
		patch := EncodePatch(obs, 1.0, rng)
		got, err := ex.Extract(patch)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Sim(obs, got)
		if err != nil {
			t.Fatal(err)
		}
		if s < 0.98 {
			t.Errorf("person %d: encode->extract sim = %v, want > 0.98", i, s)
		}
	}
}

func TestExtractValidation(t *testing.T) {
	ex := Extractor{Dim: 8}
	if _, err := ex.Extract(Patch{W: 4, H: 4, Pix: make([]byte, 15)}); err == nil {
		t.Error("want error for wrong pixel count")
	}
	if _, err := (Extractor{Dim: 1}).Extract(Patch{W: 2, H: 2, Pix: make([]byte, 4)}); err == nil {
		t.Error("want error for dim < 2")
	}
	if _, err := ex.Extract(Patch{}); err == nil {
		t.Error("want error for empty patch")
	}
}

func TestExtractWorkFactorPreservesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	v := randomUnit(rng, 32)
	patch := EncodePatch(v, 0, rng)
	fast, err := Extractor{Dim: 32}.Extract(patch)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Extractor{Dim: 32, WorkFactor: 5}.Extract(patch)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sim(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.999999 {
		t.Errorf("WorkFactor changed extraction result: sim = %v", s)
	}
}

func TestClampByte(t *testing.T) {
	tests := []struct {
		in   float64
		want byte
	}{
		{in: -10, want: 0},
		{in: 0, want: 0},
		{in: 127.6, want: 128},
		{in: 255, want: 255},
		{in: 300, want: 255},
	}
	for _, tt := range tests {
		if got := clampByte(tt.in); got != tt.want {
			t.Errorf("clampByte(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// BenchmarkExtract covers Extract, which allocates its vector, and
// ExtractInto, which writes into a reused one.
func BenchmarkExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	patch := EncodePatch(randomUnit(rng, 64), 1, rng)
	ex := Extractor{Dim: 64, WorkFactor: 4}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Extract(patch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("into", func(b *testing.B) {
		dst := make(Vector, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ex.ExtractInto(patch, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSim(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomUnit(rng, 64), randomUnit(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sim(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
