package dataset

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/mrtest"
	"evmatching/internal/scenario"
)

// TestGenerateLeavesNoEncoder runs Generate under the goroutine-leak check
// on a path that returns a world and on one that fails after the helper
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

// TestEncoderMatchesEncodePatch feeds the helper more than two chunks of
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
		h := startHelper(sigma)
		pix := make([][]byte, 2*chunkLen+37)
		ref := make([]feature.Patch, len(pix))
		for j := range pix {
			pix[j] = make([]byte, feature.PatchPixels)
			h.add(pix[j], gallery, j%10, 0.1, got)
			ref[j] = feature.EncodePatch(gallery.Observe(j%10, 0.1, want), sigma, want)
		}
		if err := h.wait(); err != nil {
			t.Fatal(err)
		}
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

// TestHelperStopsAtFirstAddError hands the helper a window whose one
// scenario Store.Add refuses (two persons carrying one EID, both sighted in
// cell 0), then a valid one: the error comes back with the first window's
// buffer and from wait, and the second window is not built.
func TestHelperStopsAtFirstAddError(t *testing.T) {
	mrtest.CheckGoroutines(t)
	cfg := DefaultConfig()
	layout, err := buildLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := startHelper(0)
	h.ds = &Dataset{Config: cfg, Layout: layout, Store: scenario.NewStore(layout),
		Persons: []Person{{EID: "e"}, {EID: "e"}}}
	for w, cells := range [][]geo.CellID{{0, 0}, {0, geo.NoCell}} {
		win := <-h.wins
		if win.err != nil {
			t.Fatalf("window %d: a fresh buffer carries %v", w, win.err)
		}
		win.w, win.eCell, win.eBorder = w, cells, make([]float64, len(cells))
		h.drawn <- win
	}
	if win := <-h.wins; win.err == nil || win.w != 0 {
		t.Errorf("window %d came back with err %v, want window 0 with the Add error", win.w, win.err)
	}
	if err := h.wait(); err == nil || !strings.Contains(err.Error(), "window 0 cell 0") {
		t.Errorf("wait = %v, want window 0's Add error", err)
	}
	if n := h.ds.Store.Len(); n != 0 {
		t.Errorf("%d scenarios stored after the failed window, want 0", n)
	}
}

// BenchmarkGenerate prices building the paper world and its practical
// twin, each cut to eight windows, and the sparse city cut to two, where
// building the store is about a fifth of generation's work.
func BenchmarkGenerate(b *testing.B) {
	sparse, err := ScalePreset(PresetSparseCity)
	if err != nil {
		b.Fatal(err)
	}
	sparse.NumWindows = 2
	paper, practical := DefaultConfig(), DefaultConfig().Practical()
	paper.NumWindows, practical.NumWindows = 8, 8
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", paper},
		{"practical", practical},
		{"sparse", sparse},
	} {
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
