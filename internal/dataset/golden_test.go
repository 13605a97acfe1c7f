package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// worldHash is the sha256 of a canonical dump of a generated world: every
// person, then per scenario its window, cell, sorted (EID, attr) pairs and
// each detection's VID, true person, patch shape and pixels, in store order.
func worldHash(ds *Dataset) string {
	h := sha256.New()
	putInt := func(v int) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(v))))
	}
	putStr := func(s string) {
		putInt(len(s))
		h.Write([]byte(s))
	}
	putInt(len(ds.Persons))
	for _, p := range ds.Persons {
		putInt(p.Index)
		putStr(string(p.EID))
		putStr(string(p.VID))
	}
	putInt(ds.Store.Len())
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		e := ds.Store.E(id)
		putInt(e.Window)
		putInt(int(e.Cell))
		eids := make([]ids.EID, 0, len(e.EIDs))
		for eid := range e.EIDs {
			eids = append(eids, eid)
		}
		sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })
		putInt(len(eids))
		for _, eid := range eids {
			putStr(string(eid))
			putInt(int(e.EIDs[eid]))
		}
		v := ds.Store.V(id)
		if v == nil {
			putInt(-1)
			continue
		}
		putInt(len(v.Detections))
		for _, d := range v.Detections {
			putStr(string(d.VID))
			putInt(d.TruePerson)
			putInt(d.Patch.W)
			putInt(d.Patch.H)
			putInt(len(d.Patch.Pix))
			h.Write(d.Patch.Pix)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// viewHash is the sha256 of every scenario's view, in ID order: its EID
// ordinals and attributes, as Add wrote them. worldHash reads EIDs by name,
// so this is what pins the order a store was built in.
func viewHash(ds *Dataset) string {
	h := sha256.New()
	putInt := func(v int) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(v))))
	}
	putInt(ds.Store.Len())
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		v := ds.Store.View(id)
		putInt(len(v.Ords))
		for i, ord := range v.Ords {
			putInt(int(ord))
			putInt(int(v.Attrs[i]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins generation itself: the ideal, practical, hex and
// hotspot worlds, each with devices and detections going missing, must keep
// producing the same persons, attributions and pixels — and the same again
// after a trip through the world file — and to build its store in the same
// order, EID ordinals included (view: a world file read back interns its
// EIDs in record order, so that pin reads the generated store only). Every downstream
// sha256 pin rests on worlds like these, so a generator change that moves an
// RNG draw shows up here first, with the world that moved named.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func(*Config)
		want, view string
	}{
		{"ideal", func(*Config) {},
			"9e4418b4d5120bcd27d4e04f644483e28d76f99ddb17744c73d63cdedd07e98e",
			"6334e8c0bc2b8f13e82a76c9d271f1071ac38cc08326889406855db09086b84d"},
		{"practical", func(c *Config) { *c = c.Practical() },
			"3baab3126d67418841cd8d2d2ca4294ec6f709d8e54b7526f47cf6c1bd939da0",
			"bfb36c192be904b0f4e259172a21538c187476d167ed2a336a2d72b9b312b5ac"},
		{"hex", func(c *Config) { c.Layout = LayoutHex },
			"549bc5c135c11928ed4535c83b6ae864e4b933595bc1937333190e1338671342",
			"fb29f1b716b63b413a7e4541f02a3432049e9dcc22178ab7b0a4a55e61d22252"},
		{"hotspot", func(c *Config) {
			c.Mobility = MobilityHotspot
			c.HotspotCount = 2
			c.HotspotAttraction = 0.9
			c.HotspotSpread = 30
		}, "5bae9fad639cfbb0c9211dc09cc7e6d4abd67790b96f6f470468bceb1ae22fca",
			"83ca21a4c6e9fa01164c5d4bb23dc482bf735be61fe7dec34e450a7be4acc6d5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumPersons = 40
			cfg.Density = 8
			cfg.NumWindows = 6
			cfg.EIDMissingRate = 0.1
			cfg.VIDMissingRate = 0.05
			tc.mutate(&cfg)
			ds := mustGenerate(t, cfg)
			if got := worldHash(ds); got != tc.want {
				t.Errorf("world hash = %s, want %s (generation changed)", got, tc.want)
			}
			if got := viewHash(ds); got != tc.view {
				t.Errorf("view hash = %s, want %s (the store is built in another order)", got, tc.view)
			}
			back, err := writeRead(ds)
			if err != nil {
				t.Fatalf("world file round trip: %v", err)
			}
			if got := worldHash(back); got != tc.want {
				t.Errorf("world hash after a world file round trip = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestWorldFileGolden pins the world file's bytes: one world written twice
// gives the same bytes, whatever order its EID maps iterate in, and those
// bytes keep their sha256 — a format change shows up here as a deliberate
// edit of the pin.
func TestWorldFileGolden(t *testing.T) {
	cfg := DefaultConfig().Practical()
	cfg.NumPersons = 30
	cfg.Density = 10
	cfg.NumWindows = 3
	cfg.EIDMissingRate = 0.1
	ds := mustGenerate(t, cfg)
	var first, second bytes.Buffer
	if err := ds.Write(&first); err != nil {
		t.Fatal(err)
	}
	if err := ds.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two writes of one world differ")
	}
	const want = "2351175bad597a0c2d997401c9d20fcb469548b934d74531ba359077fd7ae8ef"
	if sum := sha256.Sum256(first.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("world file sha256 = %x, want %s (format changed)", sum, want)
	}
}
