package trajectory

import (
	"testing"

	"evmatching/internal/dataset"
	"evmatching/internal/geo"
	"evmatching/internal/scenario"
)

func testWorld(t *testing.T, mutate func(*dataset.Config)) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 80
	cfg.Density = 10
	cfg.NumWindows = 20
	if mutate != nil {
		mutate(&cfg)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildEValidation(t *testing.T) {
	if _, err := BuildE(nil, "x"); err == nil {
		t.Error("want error for nil store")
	}
}

func TestBuildVValidation(t *testing.T) {
	if _, err := BuildV(nil, "x", 1); err == nil {
		t.Error("want error for nil store")
	}
	ds := testWorld(t, nil)
	if _, err := BuildV(ds.Store, "x", 0); err == nil {
		t.Error("want error for zero maxGap")
	}
}

func TestETrajectoryCoversAllWindows(t *testing.T) {
	// Ideal world: every EID is inclusively observed in every window.
	ds := testWorld(t, nil)
	e := ds.AllEIDs()[3]
	et, err := BuildE(ds.Store, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(et.Points) != ds.Config.NumWindows {
		t.Fatalf("E-Trajectory has %d points, want %d", len(et.Points), ds.Config.NumWindows)
	}
	for i, p := range et.Points {
		if p.Window != i {
			t.Errorf("point %d at window %d, want ascending windows from 0", i, p.Window)
		}
		if p.Vague {
			t.Error("ideal world produced vague E-location")
		}
		if p.Cell == geo.NoCell {
			t.Error("point without a cell")
		}
	}
}

func TestVTrajectorySingleSegmentWhenAlwaysSeen(t *testing.T) {
	ds := testWorld(t, nil)
	p := ds.Persons[5]
	vt, err := BuildV(ds.Store, p.VID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vt.Segments) != 1 {
		t.Errorf("segments = %d, want 1 in ideal world", len(vt.Segments))
	}
	if n := pointCount(vt); n != ds.Config.NumWindows {
		t.Errorf("V-Trajectory has %d points, want %d", n, ds.Config.NumWindows)
	}
}

func TestVTrajectorySegmentsSplitOnMisses(t *testing.T) {
	ds := testWorld(t, func(c *dataset.Config) {
		c.VIDMissingRate = 0.3
		c.Seed = 4
	})
	multi := 0
	for _, p := range ds.Persons[:20] {
		vt, err := BuildV(ds.Store, p.VID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(vt.Segments) > 1 {
			multi++
		}
		if pointCount(vt) >= ds.Config.NumWindows {
			t.Errorf("person %d: no misses despite 30%% missing rate", p.Index)
		}
	}
	if multi == 0 {
		t.Error("no person has multiple V-Trajectory segments at 30% missing")
	}
}

func TestMatchedPairTrajectoriesAreSimilar(t *testing.T) {
	// The core invariant behind EV-Matching: a person's E-Trajectory and
	// V-Trajectory coincide, and differ from other persons'.
	ds := testWorld(t, nil)
	p0, p1 := ds.Persons[0], ds.Persons[1]
	et0, err := BuildE(ds.Store, p0.EID)
	if err != nil {
		t.Fatal(err)
	}
	vt0, err := BuildV(ds.Store, p0.VID, 2)
	if err != nil {
		t.Fatal(err)
	}
	vt1, err := BuildV(ds.Store, p1.VID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if own := sharedCells(et0, vt0); own != len(et0.Points) {
		t.Errorf("own pair shares %d of %d cells, want all in ideal world", own, len(et0.Points))
	}
	if other := sharedCells(et0, vt1); other >= len(et0.Points) {
		t.Errorf("cross pair shares all %d cells", other)
	}
}

// sharedCells counts the windows in which et and vt place the person in the
// same cell.
func sharedCells(et *ETrajectory, vt *VTrajectory) int {
	cells := make(map[int]geo.CellID)
	for _, s := range vt.Segments {
		for _, p := range s.Points {
			cells[p.Window] = p.Cell
		}
	}
	n := 0
	for _, p := range et.Points {
		if c, ok := cells[p.Window]; ok && c == p.Cell {
			n++
		}
	}
	return n
}

// pointCount is the number of V-Locations across vt's segments.
func pointCount(vt *VTrajectory) int {
	n := 0
	for _, s := range vt.Segments {
		n += len(s.Points)
	}
	return n
}

func TestBuildEPrefersInclusiveSighting(t *testing.T) {
	// Hand-built store: EID vague in cell 1, inclusive in cell 2, same
	// window. The trajectory should carry the inclusive sighting.
	layout, err := geo.NewGridLayout(geo.Square(geo.Pt(0, 0), 100), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := scenario.NewStore(layout)
	if _, err := st.Add(1, 0, []scenario.EIDAttr{{EID: "e", Attr: scenario.AttrVague}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(2, 0, []scenario.EIDAttr{{EID: "e", Attr: scenario.AttrInclusive}}, nil); err != nil {
		t.Fatal(err)
	}
	et, err := BuildE(st, "e")
	if err != nil {
		t.Fatal(err)
	}
	if len(et.Points) != 1 {
		t.Fatalf("points = %d", len(et.Points))
	}
	if et.Points[0].Cell != 2 || et.Points[0].Vague {
		t.Errorf("point = %+v, want inclusive cell 2", et.Points[0])
	}
}
