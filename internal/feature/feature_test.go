package feature

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
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

// TestPatchValidate pins the one definition of a well-formed patch: a W×H
// block with both dimensions positive. The hostile shapes are ones whose
// W·H equals the pixel count in wrapping int arithmetic — negative
// dimensions, and a product that overflows to len(Pix) — and the extractor
// refuses each of them with ErrBadPatch as Validate does.
func TestPatchValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Patch
		ok   bool
	}{
		{"synthetic", Patch{W: PatchW, H: PatchH, Pix: make([]byte, PatchW*PatchH)}, true},
		{"one-pixel", Patch{W: 1, H: 1, Pix: []byte{7}}, true},
		{"negative-dims", Patch{W: -16, H: -40, Pix: make([]byte, 640)}, false},
		{"overflowing-dims", Patch{W: 128, H: int(^uint(0)>>7) + 6, Pix: make([]byte, 640)}, false}, // 128·H wraps to 640
		{"short", Patch{W: 4, H: 4, Pix: make([]byte, 15)}, false},
		{"ragged", Patch{W: 3, H: 2, Pix: make([]byte, 7)}, false},
		{"zero-width", Patch{W: 0, H: 4}, false},
		{"empty", Patch{}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.ok != (err == nil) {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
			if c.ok {
				return
			}
			if !errors.Is(err, ErrBadPatch) {
				t.Errorf("Validate() = %v, want ErrBadPatch", err)
			}
			if _, err := (Extractor{Dim: 8}).Extract(c.p); !errors.Is(err, ErrBadPatch) {
				t.Errorf("Extract = %v, want ErrBadPatch", err)
			}
		})
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

// refEncodePatch is EncodePatch as one per-pixel loop that draws each
// pixel's noise as it goes: the oracle the split encoder is held to.
func refEncodePatch(v Vector, pixelNoise float64, rng *rand.Rand) Patch {
	p := Patch{W: PatchW, H: PatchH, Pix: make([]byte, PatchW*PatchH)}
	dim := len(v)
	for k := range p.Pix {
		val := 128 + v[k%dim]*encodeScale
		if pixelNoise > 0 {
			val += rng.NormFloat64() * pixelNoise
		}
		p.Pix[k] = refClampByte(val)
	}
	return p
}

func refClampByte(v float64) byte {
	switch {
	case v < 0:
		return 0
	case v > 255:
		return 255
	default:
		return byte(math.Round(v))
	}
}

// TestEncodePatchMatchesReference holds EncodePatch to the per-pixel
// oracle: the same pixels, and the same draws taken from rng, so the next
// draw after it agrees too. The dims include ones that do not divide the
// patch and one longer than it.
func TestEncodePatchMatchesReference(t *testing.T) {
	for _, dim := range []int{2, 7, 16, 48, 64, 1000} {
		for _, sigma := range []float64{0, 1, 25} {
			for seed := int64(1); seed <= 5; seed++ {
				v := randomUnit(rand.New(rand.NewSource(seed)), dim)
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				p, q := EncodePatch(v, sigma, got), refEncodePatch(v, sigma, want)
				if p.W != q.W || p.H != q.H || !slices.Equal(p.Pix, q.Pix) {
					t.Fatalf("dim %d sigma %v seed %d: pixels differ from the reference", dim, sigma, seed)
				}
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("dim %d sigma %v seed %d: next draw %d, reference %d", dim, sigma, seed, a, b)
				}
			}
		}
	}
}

// TestEncodePatchEmptyVector checks that an empty vector panics, as the
// reference's k%0 does, instead of looping forever on a zero-length row.
func TestEncodePatchEmptyVector(t *testing.T) {
	for _, sigma := range []float64{0, 1} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			EncodePatch(Vector{}, sigma, rand.New(rand.NewSource(1)))
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Fatalf("sigma %v: EncodePatch of an empty vector returned", sigma)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("sigma %v: EncodePatch of an empty vector did not return", sigma)
		}
	}
}

// TestClampByte holds clampByte's truncate-and-compare rounding to
// math.Round on every quarter step of [-2, 258], on both neighbours of every
// half, and at the edges of the clamp.
func TestClampByte(t *testing.T) {
	ins := []float64{-10, 0, math.Copysign(0, -1), 0.49999999999999994, 127.6, 255, 255.5, 300}
	for k := -8; k <= 258*4; k++ {
		ins = append(ins, float64(k)/4)
	}
	for x := -2.5; x <= 258.5; x++ {
		ins = append(ins, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, in := range ins {
		if got, want := clampByte(in), refClampByte(in); got != want {
			t.Errorf("clampByte(%v) = %d, math.Round gives %d", in, got, want)
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

// BenchmarkEncodePatch prices one noisy patch: its PatchPixels draws and
// the encoding they feed.
func BenchmarkEncodePatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := randomUnit(rng, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodePatch(v, 1, rng)
	}
}
