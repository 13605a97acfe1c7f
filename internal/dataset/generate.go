package dataset

import (
	"fmt"
	"math/rand"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/mobility"
	"evmatching/internal/scenario"
)

// Person is one simulated human object: an appearance (always) and an EID
// (unless the person carries no device).
type Person struct {
	Index int
	EID   ids.EID // ids.None when the person carries no device
	VID   ids.VID
}

// Dataset is a fully generated EV world: the scenario store plus the ground
// truth needed for evaluation.
type Dataset struct {
	Config  Config
	Layout  geo.Layout
	Store   *scenario.Store
	Persons []Person

	byEID map[ids.EID]int // EID -> person index
}

// Generate builds the synthetic world described by cfg. Generation is
// deterministic in cfg (including Seed).
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := buildLayout(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	gallery, err := feature.NewGallery(rng, cfg.NumPersons, cfg.FeatureDim)
	if err != nil {
		return nil, fmt.Errorf("dataset: gallery: %w", err)
	}

	ds := &Dataset{
		Config:  cfg,
		Layout:  layout,
		Store:   scenario.NewStore(layout),
		Persons: make([]Person, cfg.NumPersons),
		byEID:   make(map[ids.EID]int, cfg.NumPersons),
	}
	macs := ids.NewMACGenerator(rng)
	newMover, err := moverFactory(cfg, rng)
	if err != nil {
		return nil, err
	}
	walkers := make([]mobility.Model, cfg.NumPersons)
	for i := range ds.Persons {
		eid := ids.None
		if rng.Float64() >= cfg.EIDMissingRate {
			eid = macs.Next()
			ds.byEID[eid] = i
		}
		ds.Persons[i] = Person{Index: i, EID: eid, VID: ids.VIDLabel(i)}
		w, err := newMover()
		if err != nil {
			return nil, fmt.Errorf("dataset: walker %d: %w", i, err)
		}
		walkers[i] = w
	}

	gen := &generator{cfg: cfg, layout: layout, rng: rng, gallery: gallery, ds: ds}
	for w := 0; w < cfg.NumWindows; w++ {
		if err := gen.window(w, walkers); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

func buildLayout(cfg Config) (geo.Layout, error) {
	switch cfg.Layout {
	case LayoutGrid:
		return geo.NewSquareGrid(cfg.Region(), cfg.NumCells())
	case LayoutHex:
		return geo.NewHexWithCells(cfg.Region(), cfg.NumCells())
	default:
		return nil, fmt.Errorf("%w: layout %v", ErrBadConfig, cfg.Layout)
	}
}

// moverFactory returns a constructor for per-person mobility models.
func moverFactory(cfg Config, rng *rand.Rand) (func() (mobility.Model, error), error) {
	walk := mobility.Config{
		Region:   cfg.Region(),
		SpeedMin: cfg.SpeedMin,
		SpeedMax: cfg.SpeedMax,
		PauseMax: cfg.PauseMax,
	}
	if cfg.Mobility != MobilityHotspot {
		return func() (mobility.Model, error) { return mobility.NewWalker(walk, rng) }, nil
	}
	hcfg := mobility.HotspotConfig{
		Walk:       walk,
		Hotspots:   cfg.HotspotCount,
		Attraction: cfg.HotspotAttraction,
		Spread:     cfg.HotspotSpread,
	}
	spots, err := mobility.Hotspots(hcfg, rng)
	if err != nil {
		return nil, fmt.Errorf("dataset: hotspots: %w", err)
	}
	return func() (mobility.Model, error) { return mobility.NewHotspotWalker(hcfg, spots, rng) }, nil
}

// generator accumulates per-window observations into EV-Scenarios.
type generator struct {
	cfg     Config
	layout  geo.Layout
	rng     *rand.Rand
	gallery *feature.Gallery
	ds      *Dataset
}

// eObs tracks one EID's occurrences inside one cell during a window.
type eObs struct {
	count         int
	borderDistSum float64
}

// window advances all walkers through one time window, counts E occurrences
// per cell with localization noise, places each person's detection in the
// cell they truly spent the most ticks in, and emits the window's scenarios.
func (g *generator) window(w int, walkers []mobility.Model) error {
	cfg := g.cfg
	eCount := make(map[geo.CellID]map[ids.EID]*eObs)
	trueCells := make([]map[geo.CellID]int, len(walkers))
	for i := range trueCells {
		trueCells[i] = make(map[geo.CellID]int, 2)
	}

	for tick := 0; tick < cfg.TicksPerWindow; tick++ {
		for i, walker := range walkers {
			pos := walker.Advance(cfg.TickInterval)
			trueCell := g.layout.CellOf(pos)
			if trueCell != geo.NoCell {
				trueCells[i][trueCell]++
			}
			person := g.ds.Persons[i]
			if person.EID == ids.None {
				continue
			}
			epos := pos
			if cfg.ELocNoise > 0 {
				epos = cfg.Region().Clamp(geo.Pt(
					pos.X+g.rng.NormFloat64()*cfg.ELocNoise,
					pos.Y+g.rng.NormFloat64()*cfg.ELocNoise,
				))
			}
			cell := g.layout.CellOf(epos)
			if cell == geo.NoCell {
				continue
			}
			byEID := eCount[cell]
			if byEID == nil {
				byEID = make(map[ids.EID]*eObs)
				eCount[cell] = byEID
			}
			obs := byEID[person.EID]
			if obs == nil {
				obs = &eObs{}
				byEID[person.EID] = obs
			}
			obs.count++
			obs.borderDistSum += g.layout.BorderDist(epos)
		}
	}

	detections := g.placeDetections(w, trueCells)
	return g.emitScenarios(w, eCount, detections)
}

// placeDetections assigns each person's window detection to their majority
// true cell, subject to the missing-VID rate.
func (g *generator) placeDetections(w int, trueCells []map[geo.CellID]int) map[geo.CellID][]scenario.Detection {
	cfg := g.cfg
	out := make(map[geo.CellID][]scenario.Detection)
	for i, counts := range trueCells {
		cell, best := geo.NoCell, 0
		for c, n := range counts {
			if n > best || (n == best && c < cell) {
				cell, best = c, n
			}
		}
		if cell == geo.NoCell {
			continue
		}
		if cfg.VIDMissingRate > 0 && g.rng.Float64() < cfg.VIDMissingRate {
			continue // occluded or missed by the detector
		}
		obs := g.gallery.Observe(i, cfg.ObsNoise, g.rng)
		out[cell] = append(out[cell], scenario.Detection{
			VID:        g.ds.Persons[i].VID,
			Patch:      feature.EncodePatch(obs, cfg.PixelNoise, g.rng),
			TruePerson: i,
		})
	}
	return out
}

// emitScenarios classifies the window's E observations into inclusive/vague
// attributes and stores the EV-Scenario pairs, iterating cells in order for
// determinism.
func (g *generator) emitScenarios(w int, eCount map[geo.CellID]map[ids.EID]*eObs, detections map[geo.CellID][]scenario.Detection) error {
	cfg := g.cfg
	for cell := geo.CellID(0); int(cell) < g.layout.NumCells(); cell++ {
		byEID := eCount[cell]
		dets := detections[cell]
		if len(byEID) == 0 && len(dets) == 0 {
			continue
		}
		eids := make(map[ids.EID]scenario.Attr, len(byEID))
		ticks := float64(cfg.TicksPerWindow)
		for eid, obs := range byEID {
			frac := float64(obs.count) / ticks
			switch {
			case frac >= cfg.InclusiveFrac:
				attr := scenario.AttrInclusive
				if cfg.VagueWidth > 0 && obs.borderDistSum/float64(obs.count) < cfg.VagueWidth {
					attr = scenario.AttrVague
				}
				eids[eid] = attr
			case frac >= cfg.MinFrac && cfg.MinFrac < cfg.InclusiveFrac:
				eids[eid] = scenario.AttrVague
			}
		}
		if len(eids) == 0 && len(dets) == 0 {
			continue
		}
		esc := &scenario.EScenario{Cell: cell, Window: w, EIDs: eids}
		var vsc *scenario.VScenario
		if len(dets) > 0 {
			vsc = &scenario.VScenario{Cell: cell, Window: w, Detections: dets}
		}
		if _, err := g.ds.Store.Add(esc, vsc); err != nil {
			return fmt.Errorf("dataset: window %d cell %d: %w", w, cell, err)
		}
	}
	return nil
}

// PersonByEID returns the person carrying the given EID.
func (d *Dataset) PersonByEID(e ids.EID) (Person, bool) {
	i, ok := d.byEID[e]
	if !ok {
		return Person{}, false
	}
	return d.Persons[i], true
}

// TruthVID returns the ground-truth VID for an EID, or ids.NoVID if the EID
// is unknown.
func (d *Dataset) TruthVID(e ids.EID) ids.VID {
	if p, ok := d.PersonByEID(e); ok {
		return p.VID
	}
	return ids.NoVID
}

// AllEIDs returns every assigned EID in sorted order.
func (d *Dataset) AllEIDs() []ids.EID {
	out := make([]ids.EID, 0, len(d.byEID))
	for e := range d.byEID {
		out = append(out, e)
	}
	return ids.SortEIDs(out)
}

// SampleEIDs returns n distinct EIDs drawn without replacement using rng; if
// n exceeds the number of assigned EIDs, all EIDs are returned.
func (d *Dataset) SampleEIDs(n int, rng *rand.Rand) []ids.EID {
	all := d.AllEIDs()
	if n >= len(all) {
		return all
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return ids.SortEIDs(all[:n])
}
