package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunQuickMarkdownToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "results.md")
	// Silence the duplicated stdout stream.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	if err := run([]string{"-quick", "-format", "markdown", "-out", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"**Fig 5", "**Table I", "**Fig 11", "| --- |"} {
		if !strings.Contains(text, want) {
			t.Errorf("markdown output missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	for _, format := range []string{"yaml", "csv"} {
		if err := run([]string{"-format", format}); err == nil {
			t.Errorf("want error for unknown format %q", format)
		}
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("want flag parse error")
	}
	if err := run([]string{"-quick", "-out", filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err == nil {
		t.Error("want error for uncreatable output file")
	}
}
