package viz

import (
	"strings"
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/ids"
)

func testWorld(t *testing.T, mutate func(*dataset.Config)) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 30
	cfg.Density = 6
	cfg.NumWindows = 10
	if mutate != nil {
		mutate(&cfg)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func render(t *testing.T, ds *dataset.Dataset, opts Options) string {
	t.Helper()
	var sb strings.Builder
	if err := Render(&sb, ds, opts); err != nil {
		t.Fatalf("Render: %v", err)
	}
	return sb.String()
}

func TestRenderValidation(t *testing.T) {
	var sb strings.Builder
	if err := Render(&sb, nil, Options{}); err == nil {
		t.Error("want error for nil dataset")
	}
	ds := testWorld(t, nil)
	if err := Render(&sb, ds, Options{Persons: []int{999}}); err == nil {
		t.Error("want error for out-of-range person")
	}
}

func TestRenderGridWorld(t *testing.T) {
	ds := testWorld(t, nil)
	svg := render(t, ds, Options{Persons: []int{0, 1}, EIDs: []ids.EID{ds.Persons[2].EID}})
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("not a complete SVG document")
	}
	if !strings.Contains(svg, "<rect") {
		t.Error("no grid cells drawn")
	}
	if strings.Count(svg, "<polyline") < 2 {
		t.Error("missing trajectory polylines")
	}
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("E-trajectory should be dashed")
	}
	if !strings.Contains(svg, "person 0") {
		t.Error("missing person label")
	}
}

func TestRenderHexWorld(t *testing.T) {
	ds := testWorld(t, func(c *dataset.Config) { c.Layout = dataset.LayoutHex })
	svg := render(t, ds, Options{Persons: []int{0}})
	if !strings.Contains(svg, "<polygon") {
		t.Error("no hex cells drawn")
	}
}

func TestRenderCustomSize(t *testing.T) {
	ds := testWorld(t, nil)
	svg := render(t, ds, Options{Size: 400})
	if !strings.Contains(svg, `width="400"`) {
		t.Error("custom size not applied")
	}
}
