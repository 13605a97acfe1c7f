package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"evmatching"
	"evmatching/internal/stream"
)

func TestRunGeneratesLoadableDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.bin")
	err := run([]string{
		"-out", out,
		"-persons", "50",
		"-density", "10",
		"-windows", "8",
		"-seed", "3",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ds, err := evmatching.LoadDataset(out)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if len(ds.Persons) != 50 {
		t.Errorf("persons = %d", len(ds.Persons))
	}
	if ds.Store.Len() == 0 {
		t.Error("no scenarios")
	}
}

func TestRunPracticalAndHex(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.bin")
	err := run([]string{
		"-out", out,
		"-persons", "40",
		"-density", "10",
		"-windows", "6",
		"-layout", "hex",
		"-practical",
		"-eid-miss", "0.2",
		"-vid-miss", "0.05",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ds, err := evmatching.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.AllEIDs()) >= 40 {
		t.Errorf("EIDs = %d, want < 40 with missing rate", len(ds.AllEIDs()))
	}
}

// TestRunEventsRoundTrip pins the -events satellite: the written JSONL log
// must decode back to exactly the flattening of the equivalently-generated
// dataset, so evstream replays see the same observations evgen computed.
func TestRunEventsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w.bin")
	events := filepath.Join(dir, "obs.jsonl")
	err := run([]string{
		"-out", out,
		"-events", events,
		"-window-ms", "500",
		"-persons", "40",
		"-density", "10",
		"-windows", "6",
		"-seed", "3",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(events)
	if err != nil {
		t.Fatalf("open events: %v", err)
	}
	defer f.Close()
	hdr, obs, err := stream.ReadLog(f)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	ds, err := evmatching.LoadDataset(out)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	wantHdr, wantObs, err := stream.EventsFromDataset(ds, 500, 3)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	if hdr != wantHdr {
		t.Errorf("header = %+v, want %+v", hdr, wantHdr)
	}
	if len(obs) != len(wantObs) {
		t.Fatalf("decoded %d observations, want %d", len(obs), len(wantObs))
	}
	for i := range obs {
		if !reflect.DeepEqual(obs[i], wantObs[i]) {
			t.Fatalf("observation %d:\ngot  %+v\nwant %+v", i, obs[i], wantObs[i])
		}
	}
}

// TestRunEventsOnly checks that -events without -out is a valid invocation.
func TestRunEventsOnly(t *testing.T) {
	events := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := run([]string{"-events", events, "-persons", "30", "-density", "10", "-windows", "4"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(events)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, obs, err := stream.ReadLog(f); err != nil {
		t.Fatalf("ReadLog: %v", err)
	} else if len(obs) == 0 {
		t.Error("events-only run produced an empty log")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error for missing -out")
	}
	if err := run([]string{"-out", "x", "-layout", "triangle"}); err == nil {
		t.Error("want error for unknown layout")
	}
	if err := run([]string{"-out", filepath.Join(t.TempDir(), "w.bin"), "-persons", "0"}); err == nil {
		t.Error("want error for invalid config")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("want flag parse error")
	}
}

// TestRunPresetRoundTrip pins the -preset satellite: a preset name selects
// the published scale configuration, explicit shape flags override it, and
// the result is the same world the library API generates — so benchmark and
// CLI runs agree on what "sparse-city" means. The preset is shrunk via
// -persons to stay test-sized.
func TestRunPresetRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.bin")
	err := run([]string{
		"-out", out,
		"-preset", "sparse-city",
		"-persons", "60",
		"-seed", "7",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ds, err := evmatching.LoadDataset(out)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	want, err := evmatching.ScaleDatasetConfig("sparse-city")
	if err != nil {
		t.Fatalf("ScaleDatasetConfig: %v", err)
	}
	want.NumPersons = 60
	want.Seed = 7
	if !reflect.DeepEqual(ds.Config, want) {
		t.Errorf("config = %+v, want preset with overrides %+v", ds.Config, want)
	}
	if len(ds.Persons) != 60 {
		t.Errorf("persons = %d, want the explicit -persons override", len(ds.Persons))
	}
}

// TestRunPresetUnknown rejects a bogus preset name with the valid choices.
func TestRunPresetUnknown(t *testing.T) {
	err := run([]string{"-out", "x", "-preset", "megacity"})
	if err == nil {
		t.Fatal("want error for unknown preset")
	}
	for _, name := range evmatching.ScalePresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list preset %q", err, name)
		}
	}
}
