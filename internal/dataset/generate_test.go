package dataset

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"evmatching/internal/feature"
	"evmatching/internal/mrtest"
)

// TestGenerateLeavesNoEncoder runs Generate under the goroutine-leak check
// on a path that returns a world and on one that fails after the encoder
// has started: either way Generate joins it before it returns.
func TestGenerateLeavesNoEncoder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		fail   bool
	}{
		{"world", func(*Config) {}, false},
		{"walker-error", func(c *Config) { c.PauseMax = -time.Second }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mrtest.CheckGoroutines(t)
			cfg := smallConfig()
			tc.mutate(&cfg)
			ds, err := Generate(cfg)
			if tc.fail != (err != nil) {
				t.Fatalf("Generate: err = %v, want failure %v", err, tc.fail)
			}
			if !tc.fail && ds.Store.Len() == 0 {
				t.Fatal("no scenarios")
			}
		})
	}
}

// TestEncoderMatchesEncodePatch feeds the encoder more than two chunks of
// detections, the last one partial, and holds every patch to EncodePatch
// on a twin rng: the same pixels, and the same draws taken, so the next
// draw agrees too.
func TestEncoderMatchesEncodePatch(t *testing.T) {
	mrtest.CheckGoroutines(t)
	for _, sigma := range []float64{0, 1, 25} {
		gallery, err := feature.NewGallery(rand.New(rand.NewSource(5)), 10, 24)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		enc := startEncoder(sigma)
		pix := make([][]byte, 2*chunkLen+37)
		ref := make([]feature.Patch, len(pix))
		for j := range pix {
			pix[j] = make([]byte, feature.PatchPixels)
			enc.add(pix[j], gallery.Observe(j%10, 0.1, got), got)
			ref[j] = feature.EncodePatch(gallery.Observe(j%10, 0.1, want), sigma, want)
		}
		enc.wait()
		for j := range pix {
			if !slices.Equal(pix[j], ref[j].Pix) {
				t.Fatalf("sigma %v: detection %d's pixels differ from EncodePatch's", sigma, j)
			}
		}
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("sigma %v: next draw %d, EncodePatch's rng %d", sigma, a, b)
		}
	}
}

// BenchmarkGenerate prices building the paper world and its practical
// twin, each cut to eight windows.
func BenchmarkGenerate(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", DefaultConfig()},
		{"practical", DefaultConfig().Practical()},
	} {
		tc.cfg.NumWindows = 8
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
