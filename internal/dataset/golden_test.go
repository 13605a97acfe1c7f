package dataset

import (
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

// TestGenerateGolden pins generation itself: the ideal, practical, hex and
// hotspot worlds, each with devices and detections going missing, must keep
// producing the same persons, attributions and pixels. Every downstream
// sha256 pin rests on worlds like these, so a generator change that moves an
// RNG draw shows up here first, with the world that moved named.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"ideal", func(*Config) {},
			"9e4418b4d5120bcd27d4e04f644483e28d76f99ddb17744c73d63cdedd07e98e"},
		{"practical", func(c *Config) { *c = c.Practical() },
			"3baab3126d67418841cd8d2d2ca4294ec6f709d8e54b7526f47cf6c1bd939da0"},
		{"hex", func(c *Config) { c.Layout = LayoutHex },
			"549bc5c135c11928ed4535c83b6ae864e4b933595bc1937333190e1338671342"},
		{"hotspot", func(c *Config) {
			c.Mobility = MobilityHotspot
			c.HotspotCount = 2
			c.HotspotAttraction = 0.9
			c.HotspotSpread = 30
		}, "5bae9fad639cfbb0c9211dc09cc7e6d4abd67790b96f6f470468bceb1ae22fca"},
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
			if got := worldHash(mustGenerate(t, cfg)); got != tc.want {
				t.Errorf("world hash = %s, want %s (generation changed)", got, tc.want)
			}
		})
	}
}
