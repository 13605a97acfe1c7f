package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evmatching"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	cfg := evmatching.DefaultDatasetConfig()
	cfg.NumPersons = 30
	cfg.Density = 6
	cfg.NumWindows = 8
	ds, err := evmatching.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.gob")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRendersSVG(t *testing.T) {
	data := writeDataset(t)
	out := filepath.Join(t.TempDir(), "world.svg")
	err := run([]string{
		"-data", data,
		"-out", out,
		"-persons", "0, 1",
		"-size", "600",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	svg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(svg)
	if !strings.Contains(text, "<svg") || !strings.Contains(text, "</svg>") {
		t.Error("incomplete SVG")
	}
	if !strings.Contains(text, `width="600"`) {
		t.Error("size flag ignored")
	}
}

func TestRunEIDTracks(t *testing.T) {
	data := writeDataset(t)
	ds, err := evmatching.LoadDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "e.svg")
	if err := run([]string{"-data", data, "-out", out, "-eids", string(ds.AllEIDs()[0])}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error for missing flags")
	}
	data := writeDataset(t)
	out := filepath.Join(t.TempDir(), "x.svg")
	if err := run([]string{"-data", data, "-out", out, "-persons", "zero"}); err == nil {
		t.Error("want error for bad person index")
	}
	if err := run([]string{"-data", "missing.gob", "-out", out}); err == nil {
		t.Error("want error for missing dataset")
	}
}
