package dataset

import (
	"bytes"
	"testing"

	"evmatching/internal/ids"
)

// FuzzRead feeds arbitrary bytes to the world file decoder: corrupt input
// must produce an error, never a panic or a half-initialized dataset. What
// decodes answers TruthVID for every EID it lists, and writes back to the
// very bytes it was read from.
func FuzzRead(f *testing.F) {
	// Seed with a valid world file and a few corruptions of it.
	cfg := DefaultConfig().Practical()
	cfg.NumPersons = 10
	cfg.Density = 5
	cfg.NumWindows = 2
	cfg.EIDMissingRate = 0.2
	ds, err := Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(gobEraWorld)
	truncated := valid[:len(valid)/2]
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Store == nil || got.Layout == nil {
			t.Fatal("decoded dataset with nil internals")
		}
		if err := got.Config.Validate(); err != nil {
			t.Fatalf("decoded invalid config: %v", err)
		}
		for _, eid := range got.AllEIDs() {
			if got.TruthVID(eid) == ids.NoVID {
				t.Fatalf("EID %q has no truth", eid)
			}
		}
		var again bytes.Buffer
		if err := got.Write(&again); err != nil {
			t.Fatalf("re-Write: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("re-Write gave %d different bytes for %d read", again.Len(), len(data))
		}
	})
}

// FuzzGeneratePanicFree: arbitrary (small) numeric knobs must either
// validate out or generate successfully — generation never panics.
func FuzzGeneratePanicFree(f *testing.F) {
	f.Add(5, 2.0, 2, 1, 0.0, 0.0)
	f.Add(1, 0.5, 1, 3, 0.5, 0.5)
	f.Add(20, 100.0, 4, 2, 0.9, 0.1)
	f.Fuzz(func(t *testing.T, persons int, density float64, windows, ticks int, eidMiss, vidMiss float64) {
		if persons > 50 || windows > 8 || ticks > 4 {
			t.Skip("bounded world size")
		}
		cfg := DefaultConfig()
		cfg.NumPersons = persons
		cfg.Density = density
		cfg.NumWindows = windows
		cfg.TicksPerWindow = ticks
		cfg.EIDMissingRate = eidMiss
		cfg.VIDMissingRate = vidMiss
		ds, err := Generate(cfg)
		if err != nil {
			return // invalid configs must error, not panic
		}
		if ds.Store.Len() < 0 || len(ds.Persons) != persons {
			t.Fatalf("inconsistent dataset: %d persons", len(ds.Persons))
		}
	})
}
