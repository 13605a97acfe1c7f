package dataset

import (
	"fmt"
	"math/rand"
	"slices"

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
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := startEncoder(cfg.PixelNoise)
	defer enc.wait()

	gallery, err := feature.NewGallery(rng, cfg.NumPersons, cfg.FeatureDim)
	if err != nil {
		return nil, fmt.Errorf("dataset: gallery: %w", err)
	}

	macs := ids.NewMACGenerator(rng)
	newMover, err := moverFactory(cfg, rng)
	if err != nil {
		return nil, err
	}
	persons := make([]Person, cfg.NumPersons)
	walkers := make([]mobility.Model, cfg.NumPersons)
	for i := range persons {
		persons[i] = Person{EID: ids.None, VID: ids.VIDLabel(i)}
		if rng.Float64() >= cfg.EIDMissingRate {
			persons[i].EID = macs.Next()
		}
		if walkers[i], err = newMover(); err != nil {
			return nil, fmt.Errorf("dataset: walker %d: %w", i, err)
		}
	}
	ds, err := newWorld(cfg, persons)
	if err != nil {
		return nil, err
	}

	gen := &generator{cfg: cfg, layout: ds.Layout, rng: rng, gallery: gallery, enc: enc, ds: ds}
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

// generator accumulates per-window observations into EV-Scenarios. Its
// per-window state is flat and reused from window to window: slot
// i·TicksPerWindow+t of trueCell, eCell and eBorder is person i's tick t.
type generator struct {
	cfg     Config
	layout  geo.Layout
	rng     *rand.Rand
	gallery *feature.Gallery
	enc     *encoder
	ds      *Dataset

	trueCell []geo.CellID // the cell the person truly stood in, or NoCell
	eCell    []geo.CellID // the cell the person's EID was localized in, or NoCell
	eBorder  []float64    // that localization's distance to the cell border
	sighted  []sighting   // the window's attributed EIDs, in person order
	byCell   []scenario.EIDAttr
	cellAt   []int // sighted grouped by cell: cell c's EIDs are byCell[cellAt[c]:cellAt[c+1]]
}

// sighting is one EID attributed to one cell of a window.
type sighting struct {
	cell   geo.CellID
	person int
	attr   scenario.Attr
}

// window advances all walkers through one time window, records where each
// person truly stood and where its EID was localized with noise at every
// tick, places each person's detection in the cell they truly spent the
// most ticks in, and emits the window's scenarios.
func (g *generator) window(w int, walkers []mobility.Model) error {
	cfg := g.cfg
	slots := len(walkers) * cfg.TicksPerWindow
	g.trueCell, g.eCell, g.eBorder = resize(g.trueCell, slots), resize(g.eCell, slots), resize(g.eBorder, slots)
	for tick := 0; tick < cfg.TicksPerWindow; tick++ {
		for i, walker := range walkers {
			slot := i*cfg.TicksPerWindow + tick
			pos := walker.Advance(cfg.TickInterval)
			g.trueCell[slot] = g.layout.CellOf(pos)
			g.eCell[slot] = geo.NoCell
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
			if cell := g.layout.CellOf(epos); cell != geo.NoCell {
				g.eCell[slot] = cell
				g.eBorder[slot] = g.layout.BorderDist(epos)
			}
		}
	}

	detections := g.placeDetections(w)
	return g.emitScenarios(w, detections)
}

// resize returns s with length n, reusing its storage when it is enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// placeDetections assigns each person's window detection to their majority
// true cell, the lowest such cell on a tie, subject to the missing-VID rate.
// It draws each patch's noise; the encoder writes its pixels.
func (g *generator) placeDetections(w int) map[geo.CellID][]scenario.Detection {
	cfg := g.cfg
	out := make(map[geo.CellID][]scenario.Detection)
	for i := range g.ds.Persons {
		ticks := g.trueCell[i*cfg.TicksPerWindow : (i+1)*cfg.TicksPerWindow]
		cell, best := geo.NoCell, 0
		for j, c := range ticks {
			if c == geo.NoCell || slices.Contains(ticks[:j], c) {
				continue // counted at its first tick
			}
			n := 1 + count(ticks[j+1:], c)
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
		pix := make([]byte, feature.PatchPixels)
		g.enc.add(pix, g.gallery.Observe(i, cfg.ObsNoise, g.rng), g.rng)
		out[cell] = append(out[cell], scenario.Detection{
			VID:        g.ds.Persons[i].VID,
			Patch:      feature.Patch{W: feature.PatchW, H: feature.PatchH, Pix: pix},
			TruePerson: i,
		})
	}
	return out
}

// chunkLen is how many detections an encodeChunk carries: its noise slab is
// about 655 KB.
const chunkLen = 128

// encodeChunk is a run of detections whose noise is drawn (detection j's
// from noise[j·PatchPixels]) and whose pixels are still to be written.
type encodeChunk struct {
	n     int
	pix   [chunkLen][]byte
	obs   [chunkLen]feature.Vector
	noise [chunkLen * feature.PatchPixels]float64
}

// encode writes the chunk's patches and empties it.
func (c *encodeChunk) encode(pixelNoise float64) {
	for j := range c.n {
		feature.EncodePixels(c.pix[j], c.obs[j], c.noise[j*feature.PatchPixels:], pixelNoise)
	}
	c.n = 0
}

// encoder takes the pixel encoding off the generator's goroutine, which
// draws each patch's noise in its one order and hands full chunks to one
// encoder goroutine writing their Pix buffers. Two chunks circulate, so
// what is in flight is bounded at any world size and GOMAXPROCS.
type encoder struct {
	pixelNoise float64
	cur        *encodeChunk
	free, work chan *encodeChunk
	done       chan struct{}
}

// startEncoder starts the encoder goroutine. The caller must call wait
// before it returns, on every path.
func startEncoder(pixelNoise float64) *encoder {
	// Each buffer holds both chunks, so no send ever waits.
	e := &encoder{pixelNoise: pixelNoise, cur: new(encodeChunk),
		free: make(chan *encodeChunk, 2), work: make(chan *encodeChunk, 2), done: make(chan struct{})}
	e.free <- new(encodeChunk)
	go func() {
		defer close(e.done)
		for c := range e.work {
			c.encode(e.pixelNoise)
			e.free <- c
		}
	}()
	return e
}

// add draws one detection's noise from rng and queues obs to be encoded
// into pix, which must stay unread until wait returns.
func (e *encoder) add(pix []byte, obs feature.Vector, rng *rand.Rand) {
	c := e.cur
	if e.pixelNoise > 0 {
		feature.DrawPatchNoise(c.noise[c.n*feature.PatchPixels:(c.n+1)*feature.PatchPixels], rng)
	}
	c.pix[c.n], c.obs[c.n] = pix, obs
	c.n++
	if c.n == chunkLen {
		e.work <- c
		e.cur = <-e.free
	}
}

// wait encodes what is queued and stops the encoder goroutine: every Pix
// handed to add is written when it returns.
func (e *encoder) wait() {
	e.work <- e.cur
	close(e.work)
	<-e.done
}

// count returns how many elements of s equal c.
func count(s []geo.CellID, c geo.CellID) int {
	n := 0
	for _, x := range s {
		if x == c {
			n++
		}
	}
	return n
}

// emitScenarios classifies the window's E observations into inclusive/vague
// attributes and stores the EV-Scenario pairs, iterating cells in order for
// determinism.
func (g *generator) emitScenarios(w int, detections map[geo.CellID][]scenario.Detection) error {
	cfg := g.cfg
	ticks := float64(cfg.TicksPerWindow)
	g.sighted = g.sighted[:0]
	for i := range g.ds.Persons {
		lo := i * cfg.TicksPerWindow
		cells := g.eCell[lo : lo+cfg.TicksPerWindow]
		for j, c := range cells {
			if c == geo.NoCell || slices.Contains(cells[:j], c) {
				continue // tallied at its first tick
			}
			// The border distances are summed in tick order.
			n, borderSum := 0, 0.0
			for k := j; k < len(cells); k++ {
				if cells[k] == c {
					n++
					borderSum += g.eBorder[lo+k]
				}
			}
			frac := float64(n) / ticks
			switch {
			case frac >= cfg.InclusiveFrac:
				attr := scenario.AttrInclusive
				if cfg.VagueWidth > 0 && borderSum/float64(n) < cfg.VagueWidth {
					attr = scenario.AttrVague
				}
				g.sighted = append(g.sighted, sighting{cell: c, person: i, attr: attr})
			case frac >= cfg.MinFrac && cfg.MinFrac < cfg.InclusiveFrac:
				g.sighted = append(g.sighted, sighting{cell: c, person: i, attr: scenario.AttrVague})
			}
		}
	}
	// Group the sightings by cell, a counting sort over the layout's cells.
	numCells := g.layout.NumCells()
	g.cellAt = resize(g.cellAt, numCells+1)
	clear(g.cellAt)
	for _, s := range g.sighted {
		g.cellAt[s.cell+1]++
	}
	for c := 1; c <= numCells; c++ {
		g.cellAt[c] += g.cellAt[c-1]
	}
	g.byCell = resize(g.byCell, len(g.sighted))
	for _, s := range g.sighted {
		g.byCell[g.cellAt[s.cell]] = scenario.EIDAttr{EID: g.ds.Persons[s.person].EID, Attr: s.attr}
		g.cellAt[s.cell]++
	}
	// Filling advanced each cell's start to the next cell's.
	copy(g.cellAt[1:], g.cellAt[:numCells])
	g.cellAt[0] = 0
	for cell := geo.CellID(0); int(cell) < numCells; cell++ {
		eids := g.byCell[g.cellAt[cell]:g.cellAt[cell+1]]
		dets := detections[cell]
		if len(eids) == 0 && len(dets) == 0 {
			continue
		}
		var vsc *scenario.VScenario
		if len(dets) > 0 {
			vsc = &scenario.VScenario{Cell: cell, Window: w, Detections: dets}
		}
		if _, err := g.ds.Store.Add(cell, w, eids, vsc); err != nil {
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
