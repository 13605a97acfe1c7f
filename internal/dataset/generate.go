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
func Generate(cfg Config) (ds *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := startHelper(cfg.PixelNoise)
	defer func() {
		if herr := h.wait(); err == nil && herr != nil {
			ds, err = nil, herr
		}
	}()

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
	if ds, err = newWorld(cfg, persons); err != nil {
		return nil, err
	}
	h.ds = ds // before the first window is handed over

	gen := &generator{cfg: cfg, layout: ds.Layout, rng: rng, gallery: gallery, h: h, ds: ds}
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

// generator draws each window's observations; the helper builds them into
// EV-Scenarios. trueCell is flat and reused from window to window: slot
// i·TicksPerWindow+t is person i's tick t, as in a windowDraws.
type generator struct {
	cfg     Config
	layout  geo.Layout
	rng     *rand.Rand
	gallery *feature.Gallery
	h       *helper
	ds      *Dataset

	trueCell []geo.CellID // the cell the person truly stood in, or NoCell
}

// window advances all walkers through one time window, records where each
// person truly stood and where its EID was localized with noise at every
// tick, places each person's detection in the cell they truly spent the
// most ticks in, and hands the window to the helper to build its scenarios.
// It returns the first Add error of an earlier window.
func (g *generator) window(w int, walkers []mobility.Model) error {
	cfg := g.cfg
	win := <-g.h.wins
	if win.err != nil {
		return win.err
	}
	slots := len(walkers) * cfg.TicksPerWindow
	g.trueCell = resize(g.trueCell, slots)
	win.w, win.eCell, win.eBorder = w, resize(win.eCell, slots), resize(win.eBorder, slots)
	for tick := 0; tick < cfg.TicksPerWindow; tick++ {
		for i, walker := range walkers {
			slot := i*cfg.TicksPerWindow + tick
			pos := walker.Advance(cfg.TickInterval)
			g.trueCell[slot] = g.layout.CellOf(pos)
			win.eCell[slot] = geo.NoCell
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
				win.eCell[slot] = cell
				win.eBorder[slot] = g.layout.BorderDist(epos)
			}
		}
	}

	g.placeDetections(win)
	g.h.drawn <- win
	return nil
}

// resize returns s with length n, reusing its storage when it is enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// placeDetections assigns each person's window detection to their majority
// true cell, the lowest such cell on a tie, subject to the missing-VID rate,
// and files it in win.dets. It draws each patch's noise; the helper writes
// its pixels.
func (g *generator) placeDetections(win *windowDraws) {
	cfg := g.cfg
	if win.dets == nil {
		win.dets = make(map[geo.CellID][]scenario.Detection)
	}
	clear(win.dets)
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
		g.h.add(pix, g.gallery, i, cfg.ObsNoise, g.rng)
		win.dets[cell] = append(win.dets[cell], scenario.Detection{
			VID:        g.ds.Persons[i].VID,
			Patch:      feature.Patch{W: feature.PatchW, H: feature.PatchH, Pix: pix},
			TruePerson: i,
		})
	}
}

// chunkLen is how many detections an encodeChunk carries: its noise slab is
// about 655 KB.
const chunkLen = 128

// encodeChunk is a run of detections whose descriptors and noise are drawn
// (detection j's descriptor into desc[j·dim], its noise from
// noise[j·PatchPixels]) and whose pixels are still to be written.
type encodeChunk struct {
	n     int
	pix   [chunkLen][]byte
	obs   [chunkLen]feature.Vector
	desc  []float64 // chunkLen descriptors, sized at the first add
	noise [chunkLen * feature.PatchPixels]float64
}

// encode writes the chunk's patches and empties it.
func (c *encodeChunk) encode(pixelNoise float64) {
	for j := range c.n {
		feature.EncodePixels(c.pix[j], c.obs[j], c.noise[j*feature.PatchPixels:], pixelNoise)
	}
	c.n = 0
}

// windowDraws is one drawn window whose scenarios are still to be built:
// where each person's EID was localized at each tick (slot
// i·TicksPerWindow+t, NoCell for none) and its distance to the cell border,
// and the window's detections by cell.
type windowDraws struct {
	w       int
	eCell   []geo.CellID
	eBorder []float64
	dets    map[geo.CellID][]scenario.Detection
	err     error // set by the helper as it hands the buffer back: its first Add error
}

// helper takes the work that draws no random number off the generator's
// goroutine: one helper goroutine encodes each chunk of patches and builds
// each window's scenarios (attribution, grouping by cell, Store.Add). It
// builds the windows in the order they were drawn, so scenario IDs and EID
// ordinals are those the draws alone would give, and encodes a chunk as
// soon as it is full, a window build included: a sparse-city window takes
// as long to build as some twenty chunks take to fill. Two chunks and two
// windows circulate, so what is in flight is bounded at any world size and
// GOMAXPROCS.
type helper struct {
	pixelNoise  float64
	cur         *encodeChunk
	free, full  chan *encodeChunk // chunks empty for the generator, full for the helper
	wins, drawn chan *windowDraws // windows free for the generator, drawn for the helper
	done        chan struct{}

	// Set by Generate before it hands over the first window.
	ds *Dataset
	// The helper goroutine's own; wait reads err once it has stopped.
	err     error      // the first Add error; later windows are not built
	sighted []sighting // the window's attributed EIDs, in person order
	byCell  []scenario.EIDAttr
	cellAt  []int // sighted grouped by cell: cell c's EIDs are byCell[cellAt[c]:cellAt[c+1]]
}

// sighting is one EID attributed to one cell of a window.
type sighting struct {
	cell   geo.CellID
	person int
	attr   scenario.Attr
}

// startHelper starts the helper goroutine. The caller must call wait before
// it returns, on every path.
func startHelper(pixelNoise float64) *helper {
	// Each buffer holds every chunk or window, so no send ever waits.
	h := &helper{pixelNoise: pixelNoise, cur: new(encodeChunk),
		free: make(chan *encodeChunk, 2), full: make(chan *encodeChunk, 2),
		wins: make(chan *windowDraws, 2), drawn: make(chan *windowDraws, 2), done: make(chan struct{})}
	h.free <- new(encodeChunk)
	h.wins <- new(windowDraws)
	h.wins <- new(windowDraws)
	go func() {
		defer close(h.done)
		for {
			select {
			case c := <-h.full:
				h.encode(c)
			case win, ok := <-h.drawn:
				if !ok {
					h.encodeReady() // wait queued the last chunk before it closed drawn
					return
				}
				if h.err == nil {
					h.err = h.emitScenarios(win)
				}
				win.err = h.err
				h.wins <- win
			}
		}
	}()
	return h
}

// encode writes a full chunk's patches and hands it back to the generator.
func (h *helper) encode(c *encodeChunk) {
	c.encode(h.pixelNoise)
	h.free <- c
}

// encodeReady encodes every chunk already full. A window build calls it as
// it goes, so the generator does not wait out the build for an empty chunk.
func (h *helper) encodeReady() {
	for {
		select {
		case c := <-h.full:
			h.encode(c)
		default:
			return
		}
	}
}

// add draws one detection of person from rng — its observed descriptor
// (g.ObserveInto the chunk's slab), then its patch noise — and queues it to
// be encoded into pix, which must stay unread until wait returns.
func (h *helper) add(pix []byte, g *feature.Gallery, person int, sigma float64, rng *rand.Rand) {
	c := h.cur
	dim := g.Dim()
	if len(c.desc) != chunkLen*dim {
		c.desc = make([]float64, chunkLen*dim)
	}
	obs := g.ObserveInto(c.desc[c.n*dim:(c.n+1)*dim], person, sigma, rng)
	if h.pixelNoise > 0 {
		feature.DrawPatchNoise(c.noise[c.n*feature.PatchPixels:(c.n+1)*feature.PatchPixels], rng)
	}
	c.pix[c.n], c.obs[c.n] = pix, obs
	c.n++
	if c.n == chunkLen {
		h.full <- c
		h.cur = <-h.free
	}
}

// wait encodes and builds what is queued and stops the helper goroutine:
// every Pix handed to add is written, and every window handed over built,
// when it returns the first Add error.
func (h *helper) wait() error {
	h.full <- h.cur
	close(h.drawn)
	<-h.done
	return h.err
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
func (h *helper) emitScenarios(win *windowDraws) error {
	cfg := h.ds.Config
	ticks := float64(cfg.TicksPerWindow)
	h.sighted = h.sighted[:0]
	for i := range h.ds.Persons {
		if i%1024 == 0 {
			h.encodeReady()
		}
		lo := i * cfg.TicksPerWindow
		cells := win.eCell[lo : lo+cfg.TicksPerWindow]
		for j, c := range cells {
			if c == geo.NoCell || slices.Contains(cells[:j], c) {
				continue // tallied at its first tick
			}
			// The border distances are summed in tick order.
			n, borderSum := 0, 0.0
			for k := j; k < len(cells); k++ {
				if cells[k] == c {
					n++
					borderSum += win.eBorder[lo+k]
				}
			}
			frac := float64(n) / ticks
			switch {
			case frac >= cfg.InclusiveFrac:
				attr := scenario.AttrInclusive
				if cfg.VagueWidth > 0 && borderSum/float64(n) < cfg.VagueWidth {
					attr = scenario.AttrVague
				}
				h.sighted = append(h.sighted, sighting{cell: c, person: i, attr: attr})
			case frac >= cfg.MinFrac && cfg.MinFrac < cfg.InclusiveFrac:
				h.sighted = append(h.sighted, sighting{cell: c, person: i, attr: scenario.AttrVague})
			}
		}
	}
	// Group the sightings by cell, a counting sort over the layout's cells.
	numCells := h.ds.Layout.NumCells()
	h.cellAt = resize(h.cellAt, numCells+1)
	clear(h.cellAt)
	for _, s := range h.sighted {
		h.cellAt[s.cell+1]++
	}
	for c := 1; c <= numCells; c++ {
		h.cellAt[c] += h.cellAt[c-1]
	}
	h.byCell = resize(h.byCell, len(h.sighted))
	for _, s := range h.sighted {
		h.byCell[h.cellAt[s.cell]] = scenario.EIDAttr{EID: h.ds.Persons[s.person].EID, Attr: s.attr}
		h.cellAt[s.cell]++
	}
	// Filling advanced each cell's start to the next cell's.
	copy(h.cellAt[1:], h.cellAt[:numCells])
	h.cellAt[0] = 0
	for cell := geo.CellID(0); int(cell) < numCells; cell++ {
		if cell%64 == 0 {
			h.encodeReady()
		}
		eids := h.byCell[h.cellAt[cell]:h.cellAt[cell+1]]
		dets := win.dets[cell]
		if len(eids) == 0 && len(dets) == 0 {
			continue
		}
		var vsc *scenario.VScenario
		if len(dets) > 0 {
			vsc = &scenario.VScenario{Cell: cell, Window: win.w, Detections: dets}
		}
		if _, err := h.ds.Store.Add(cell, win.w, eids, vsc); err != nil {
			return fmt.Errorf("dataset: window %d cell %d: %w", win.w, cell, err)
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
