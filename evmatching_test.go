package evmatching

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// smallWorld generates a compact dataset for facade tests.
func smallWorld(t *testing.T) *Dataset {
	t.Helper()
	cfg := DefaultDatasetConfig()
	cfg.NumPersons = 100
	cfg.Density = 10
	cfg.NumWindows = 16
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFacadeEndToEnd(t *testing.T) {
	ds := smallWorld(t)
	targets := ds.SampleEIDs(25, rand.New(rand.NewSource(1)))
	rep, err := Match(context.Background(), ds, Options{}, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Accuracy(ds.TruthVID); got < 0.7 {
		t.Errorf("accuracy = %v", got)
	}
	if rep.Algorithm != AlgorithmSS || rep.Mode != ModeSerial {
		t.Errorf("defaults: %v %v", rep.Algorithm, rep.Mode)
	}
}

func TestFacadeMatcherReuse(t *testing.T) {
	ds := smallWorld(t)
	m, err := NewMatcher(ds, Options{Algorithm: AlgorithmEDP})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2; i++ {
		rep, err := m.Match(context.Background(), ds.SampleEIDs(10, rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 10 {
			t.Errorf("run %d: results = %d", i, len(rep.Results))
		}
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	ds := smallWorld(t)
	path := filepath.Join(t.TempDir(), "w.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store.Len() != ds.Store.Len() {
		t.Errorf("store len %d != %d", got.Store.Len(), ds.Store.Len())
	}
}

func TestRunExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	var out, progress bytes.Buffer
	if err := RunExperiments(context.Background(), QuickExperiments(), &out, &progress); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 5", "Table I", "Fig 11"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	if !strings.Contains(progress.String(), "# run") {
		t.Error("progress log empty")
	}
}

func TestPaperExperimentsConfigSane(t *testing.T) {
	cfg := PaperExperiments()
	if cfg.Base.NumPersons != 1000 {
		t.Errorf("paper persons = %d", cfg.Base.NumPersons)
	}
	if len(cfg.EIDCounts) != 9 || cfg.EIDCounts[0] != 100 || cfg.EIDCounts[8] != 900 {
		t.Errorf("paper EID sweep = %v", cfg.EIDCounts)
	}
}
