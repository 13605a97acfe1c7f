package dataset

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// smallConfig is a fast configuration for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPersons = 60
	cfg.Density = 10
	cfg.NumWindows = 12
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero persons", mutate: func(c *Config) { c.NumPersons = 0 }},
		{name: "zero region", mutate: func(c *Config) { c.RegionSide = 0 }},
		{name: "zero density", mutate: func(c *Config) { c.Density = 0 }},
		{name: "bad layout", mutate: func(c *Config) { c.Layout = 0 }},
		{name: "zero windows", mutate: func(c *Config) { c.NumWindows = 0 }},
		{name: "zero ticks", mutate: func(c *Config) { c.TicksPerWindow = 0 }},
		{name: "zero interval", mutate: func(c *Config) { c.TickInterval = 0 }},
		{name: "bad speeds", mutate: func(c *Config) { c.SpeedMax = 0.1 }},
		{name: "tiny dim", mutate: func(c *Config) { c.FeatureDim = 1 }},
		{name: "negative noise", mutate: func(c *Config) { c.ObsNoise = -1 }},
		{name: "bad inclusive frac", mutate: func(c *Config) { c.InclusiveFrac = 1.5 }},
		{name: "minfrac above inclusive", mutate: func(c *Config) { c.MinFrac = 0.9 }},
		{name: "eid missing rate 1", mutate: func(c *Config) { c.EIDMissingRate = 1 }},
		{name: "negative vid missing", mutate: func(c *Config) { c.VIDMissingRate = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if err := DefaultConfig().Practical().Validate(); err != nil {
		t.Errorf("Practical config invalid: %v", err)
	}
}

func TestNumCells(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPersons, cfg.Density = 1000, 60
	if got := cfg.NumCells(); got != 17 {
		t.Errorf("NumCells = %d, want 17", got)
	}
	cfg.Density = 5000
	if got := cfg.NumCells(); got != 1 {
		t.Errorf("NumCells = %d, want 1 (floor)", got)
	}
}

func TestLayoutKindString(t *testing.T) {
	if LayoutGrid.String() != "grid" || LayoutHex.String() != "hex" || LayoutKind(0).String() != "invalid" {
		t.Error("LayoutKind.String wrong")
	}
}

func TestGenerateIdealWorldBasics(t *testing.T) {
	cfg := smallConfig()
	ds := mustGenerate(t, cfg)
	if len(ds.Persons) != cfg.NumPersons {
		t.Fatalf("persons = %d", len(ds.Persons))
	}
	if got := len(ds.AllEIDs()); got != cfg.NumPersons {
		t.Errorf("AllEIDs = %d, want %d (no missing EIDs)", got, cfg.NumPersons)
	}
	if ds.Store.Len() == 0 {
		t.Fatal("no scenarios generated")
	}
	// Ideal setting: every attributed EID is inclusive.
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		for eid, attr := range ds.Store.E(id).EIDs {
			if attr != scenario.AttrInclusive {
				t.Fatalf("ideal scenario %d has non-inclusive EID %s (%v)", id, eid, attr)
			}
		}
	}
}

func TestGenerateIdealEVConsistency(t *testing.T) {
	// In the ideal setting, when an EID appears in an E-Scenario the same
	// person's VID appears in the corresponding V-Scenario (assumption 2).
	ds := mustGenerate(t, smallConfig())
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		e := ds.Store.E(id)
		v := ds.Store.V(id)
		for eid := range e.EIDs {
			p, ok := ds.PersonByEID(eid)
			if !ok {
				t.Fatalf("scenario EID %s has no person", eid)
			}
			if v == nil || !v.HasVID(p.VID) {
				t.Fatalf("scenario %d: EID %s present but VID %s missing", id, eid, p.VID)
			}
		}
	}
}

func TestGenerateEachPersonOneDetectionPerWindow(t *testing.T) {
	cfg := smallConfig()
	ds := mustGenerate(t, cfg)
	perWindow := make(map[int]map[int]int) // window -> person -> detections
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		v := ds.Store.V(id)
		if v == nil {
			continue
		}
		m := perWindow[v.Window]
		if m == nil {
			m = make(map[int]int)
			perWindow[v.Window] = m
		}
		for _, d := range v.Detections {
			m[d.TruePerson]++
		}
	}
	for w, m := range perWindow {
		for person, n := range m {
			if n != 1 {
				t.Fatalf("window %d person %d has %d detections", w, person, n)
			}
		}
		if len(m) != cfg.NumPersons {
			t.Fatalf("window %d covers %d persons, want %d", w, len(m), cfg.NumPersons)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("store sizes differ: %d vs %d", a.Store.Len(), b.Store.Len())
	}
	for id := scenario.ID(0); int(id) < a.Store.Len(); id++ {
		ea, eb := a.Store.E(id), b.Store.E(id)
		if ea.Cell != eb.Cell || ea.Window != eb.Window || len(ea.EIDs) != len(eb.EIDs) {
			t.Fatalf("scenario %d differs", id)
		}
		for eid, attr := range ea.EIDs {
			if eb.EIDs[eid] != attr {
				t.Fatalf("scenario %d EID %s attr differs", id, eid)
			}
		}
	}
	for i := range a.Persons {
		if a.Persons[i] != b.Persons[i] {
			t.Fatalf("person %d differs", i)
		}
	}
}

func TestGenerateEIDMissing(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPersons = 200
	cfg.EIDMissingRate = 0.3
	ds := mustGenerate(t, cfg)
	got := len(ds.AllEIDs())
	if got >= 200 || got < 100 {
		t.Errorf("with 30%% missing, %d/200 EIDs assigned", got)
	}
	// Persons without EIDs still produce detections.
	var missingDetected bool
	for id := scenario.ID(0); int(id) < ds.Store.Len() && !missingDetected; id++ {
		v := ds.Store.V(id)
		if v == nil {
			continue
		}
		for _, d := range v.Detections {
			if ds.Persons[d.TruePerson].EID == ids.None {
				missingDetected = true
				break
			}
		}
	}
	if !missingDetected {
		t.Error("no detections from device-less persons")
	}
}

func TestGenerateVIDMissing(t *testing.T) {
	cfg := smallConfig()
	cfg.VIDMissingRate = 0.2
	ds := mustGenerate(t, cfg)
	total := 0
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		if v := ds.Store.V(id); v != nil {
			total += len(v.Detections)
		}
	}
	expected := cfg.NumPersons * cfg.NumWindows
	if total >= expected {
		t.Errorf("detections = %d, want < %d with 20%% missing", total, expected)
	}
	if float64(total) < 0.6*float64(expected) {
		t.Errorf("detections = %d, too few for 20%% missing of %d", total, expected)
	}
}

func TestGeneratePracticalHasVagueEIDs(t *testing.T) {
	cfg := smallConfig().Practical()
	ds := mustGenerate(t, cfg)
	var vague, inclusive int
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		for _, attr := range ds.Store.E(id).EIDs {
			switch attr {
			case scenario.AttrInclusive:
				inclusive++
			case scenario.AttrVague:
				vague++
			}
		}
	}
	if vague == 0 {
		t.Error("practical setting produced no vague EIDs")
	}
	if inclusive == 0 {
		t.Error("practical setting produced no inclusive EIDs")
	}
	if vague >= inclusive {
		t.Errorf("vague (%d) should be rarer than inclusive (%d)", vague, inclusive)
	}
}

func TestGenerateHexLayout(t *testing.T) {
	cfg := smallConfig()
	cfg.Layout = LayoutHex
	ds := mustGenerate(t, cfg)
	if _, ok := ds.Layout.(*geo.HexLayout); !ok {
		t.Fatalf("layout is %T, want *geo.HexLayout", ds.Layout)
	}
	if ds.Store.Len() == 0 {
		t.Error("no scenarios on hex layout")
	}
}

func TestTruthAndSampling(t *testing.T) {
	ds := mustGenerate(t, smallConfig())
	all := ds.AllEIDs()
	e := all[0]
	p, ok := ds.PersonByEID(e)
	if !ok {
		t.Fatal("PersonByEID failed for assigned EID")
	}
	if got := ds.TruthVID(e); got != p.VID {
		t.Errorf("TruthVID = %v, want %v", got, p.VID)
	}
	if got := ds.TruthVID("no:such:eid"); got != ids.NoVID {
		t.Errorf("TruthVID(unknown) = %v", got)
	}
	rng := rand.New(rand.NewSource(5))
	sample := ds.SampleEIDs(10, rng)
	if len(sample) != 10 {
		t.Fatalf("SampleEIDs = %d", len(sample))
	}
	seen := map[ids.EID]bool{}
	for _, s := range sample {
		if seen[s] {
			t.Fatalf("duplicate EID %s in sample", s)
		}
		seen[s] = true
	}
	if got := ds.SampleEIDs(10000, rng); len(got) != len(all) {
		t.Errorf("oversized sample = %d, want all %d", len(got), len(all))
	}
}

func TestRoundTripSerialization(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWindows = 6
	ds := mustGenerate(t, cfg)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Store.Len() != ds.Store.Len() || len(got.Persons) != len(ds.Persons) {
		t.Fatalf("round trip sizes differ")
	}
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		e1, e2 := ds.Store.E(id), got.Store.E(id)
		if e1.Cell != e2.Cell || e1.Window != e2.Window || len(e1.EIDs) != len(e2.EIDs) {
			t.Fatalf("scenario %d differs after round trip", id)
		}
		v1, v2 := ds.Store.V(id), got.Store.V(id)
		if (v1 == nil) != (v2 == nil) {
			t.Fatalf("scenario %d V presence differs", id)
		}
		if v1 != nil && len(v1.Detections) != len(v2.Detections) {
			t.Fatalf("scenario %d detections differ", id)
		}
	}
	if got.TruthVID(ds.AllEIDs()[0]) != ds.TruthVID(ds.AllEIDs()[0]) {
		t.Error("truth differs after round trip")
	}
}

func TestSaveLoadFile(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWindows = 4
	ds := mustGenerate(t, cfg)
	path := filepath.Join(t.TempDir(), "world.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if worldHash(got) != worldHash(ds) {
		t.Error("the loaded world differs from the saved one")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a world file"))); err == nil {
		t.Error("want decode error")
	}
}

// gobEraWorld is how a version-1 world file began: the gob type descriptor
// of the single value it held.
var gobEraWorld, _ = hex.DecodeString("477f0301010a66696c65466f726d617401ff80000104010756657273696f6e01")

// TestReadRefusesOtherVersions: a version-1 (gob) world fails with an error
// that says to regenerate it, a future version by number.
func TestReadRefusesOtherVersions(t *testing.T) {
	if _, err := Read(bytes.NewReader(gobEraWorld)); err == nil || !strings.Contains(err.Error(), "regenerate it with evgen") {
		t.Errorf("gob-era world: err = %v, want one naming evgen", err)
	}
	next := append([]byte(fileMagic), fileVersion+1)
	if _, err := Read(bytes.NewReader(next)); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("future version: err = %v, want one naming version 3", err)
	}
}

// writeRead writes ds and reads the bytes back.
func writeRead(ds *Dataset) (*Dataset, error) {
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		return nil, err
	}
	return Read(&buf)
}

// TestReadRejectsBadPersons: a person's index is its position in the file,
// never a stored field, so a wrong Index in memory cannot point TruthVID out
// of range after a round trip; and a file whose persons repeat an EID or a
// VID, or whose count is not the config's, is refused.
func TestReadRejectsBadPersons(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPersons = 10
	cfg.NumWindows = 2
	ds := mustGenerate(t, cfg)

	ds.Persons[0].Index = 99
	got, err := writeRead(ds)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, eid := range got.AllEIDs() {
		p, _ := got.PersonByEID(eid)
		if got.TruthVID(eid) != p.VID || got.Persons[p.Index].EID != eid {
			t.Errorf("EID %s: person %+v", eid, p)
		}
	}
	ds.Persons[0].Index = 0

	for name, mutate := range map[string]func([]Person) []Person{
		"repeated EID": func(ps []Person) []Person { ps[1].EID = ps[0].EID; return ps },
		"repeated VID": func(ps []Person) []Person { ps[2].VID = ps[3].VID; return ps },
		"one short":    func(ps []Person) []Person { return ps[:len(ps)-1] },
	} {
		bad := *ds
		bad.Persons = mutate(append([]Person(nil), ds.Persons...))
		if _, err := writeRead(&bad); err == nil {
			t.Errorf("%s: Read accepted the file", name)
		}
	}
}

// TestReadRefusesHostileRecords: the scenario decoder refuses a patch that
// fails feature.Patch.Validate and an attribute that is neither inclusive
// nor vague, so such a world fails at Read, not at match time.
func TestReadRefusesHostileRecords(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWindows = 2
	for name, spoil := range map[string]func(*scenario.Record){
		"-16x-40 patch": func(rec *scenario.Record) {
			rec.Dets[0].Patch.W, rec.Dets[0].Patch.H = -16, -40
		},
		"attribute 3": func(rec *scenario.Record) {
			for i := range rec.EIDs {
				rec.EIDs[i].Attr = 3
			}
		},
	} {
		// The world rebuilt record by record, scenario 0's record spoiled:
		// the store keeps what it is given, so Write carries the spoil.
		ds := mustGenerate(t, cfg)
		hostile := *ds
		hostile.Store = scenario.NewStore(ds.Layout)
		for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
			rec := ds.Store.Record(id, ds.Store.V(id))
			if id == 0 {
				if len(rec.EIDs) == 0 || len(rec.Dets) == 0 {
					t.Fatal("scenario 0 has no EID or no detection to spoil")
				}
				spoil(&rec)
			}
			if _, err := hostile.Store.Add(rec.Cell, rec.Window, rec.EIDs, rec.V()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := writeRead(&hostile); err == nil || !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, err)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.TickInterval = -time.Second
	if _, err := Generate(cfg); err == nil {
		t.Error("want error")
	}
}

func TestGenerateHotspotMobility(t *testing.T) {
	cfg := smallConfig()
	cfg.Mobility = MobilityHotspot
	cfg.HotspotCount = 2
	cfg.HotspotAttraction = 0.9
	cfg.HotspotSpread = 30
	ds := mustGenerate(t, cfg)
	if ds.Store.Len() == 0 {
		t.Fatal("no scenarios under hotspot mobility")
	}
	// Crowding: the most populated scenario should hold a large share of
	// the population, unlike the uniform waypoint world.
	maxDets := 0
	for id := scenario.ID(0); int(id) < ds.Store.Len(); id++ {
		if v := ds.Store.V(id); v != nil && len(v.Detections) > maxDets {
			maxDets = len(v.Detections)
		}
	}
	if maxDets < cfg.NumPersons/3 {
		t.Errorf("max detections per scenario = %d of %d persons; expected crowding", maxDets, cfg.NumPersons)
	}
}

func TestGenerateRejectsBadHotspot(t *testing.T) {
	cfg := smallConfig()
	cfg.Mobility = MobilityHotspot
	cfg.HotspotCount = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("want validation error")
	}
	if MobilityWaypoint.String() != "waypoint" || MobilityHotspot.String() != "hotspot" || MobilityKind(9).String() != "invalid" {
		t.Error("MobilityKind.String wrong")
	}
}
