// Package dataset generates the synthetic EV world of the paper's evaluation
// (§VI-A): persons moving by random waypoint across a 1000 m × 1000 m cell
// region, each carrying an EID (WiFi MAC) and a visual appearance, with
// E-localization noise (drifting EIDs), missing EIDs (no device), and missing
// VIDs (missed detections) injected per the practical settings.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"time"

	"evmatching/internal/geo"
)

// LayoutKind selects the cell discretization of the region.
type LayoutKind int

// Layout kinds.
const (
	LayoutGrid LayoutKind = iota + 1
	LayoutHex
)

// String implements fmt.Stringer.
func (k LayoutKind) String() string {
	switch k {
	case LayoutGrid:
		return "grid"
	case LayoutHex:
		return "hex"
	default:
		return "invalid"
	}
}

// MobilityKind selects the movement model driving the human objects.
type MobilityKind int

// Mobility kinds. The zero value selects the paper's random waypoint model.
const (
	MobilityWaypoint MobilityKind = iota
	MobilityHotspot
)

// String implements fmt.Stringer.
func (k MobilityKind) String() string {
	switch k {
	case MobilityWaypoint:
		return "waypoint"
	case MobilityHotspot:
		return "hotspot"
	default:
		return "invalid"
	}
}

// ErrBadConfig reports an invalid dataset configuration.
var ErrBadConfig = errors.New("dataset: invalid config")

// Config parameterizes world generation. DefaultConfig returns the paper's
// setup; tests and quick benchmarks shrink it.
type Config struct {
	// Seed drives all randomness; equal configs generate equal worlds.
	Seed int64

	// NumPersons is the number of human objects (paper: 1000).
	NumPersons int
	// RegionSide is the side of the square region in meters (paper: 1000).
	RegionSide float64
	// Density is the average number of persons per cell; the region is cut
	// into about NumPersons/Density cells (paper sweeps 20–180).
	Density float64
	// Layout selects grid or hexagonal cells.
	Layout LayoutKind

	// NumWindows is the number of scenario time windows generated.
	NumWindows int
	// TicksPerWindow is the number of occurrence-counting samples per
	// window. 1 reproduces the ideal single-time-point EV-Scenario; larger
	// values enable the occurrence-based inclusive/vague attribution of the
	// practical setting (paper §IV-C2).
	TicksPerWindow int
	// TickInterval is the simulated time between samples.
	TickInterval time.Duration

	// SpeedMin, SpeedMax and PauseMax parameterize random waypoint motion.
	SpeedMin float64
	SpeedMax float64
	PauseMax time.Duration
	// Mobility selects the movement model; zero means MobilityWaypoint.
	Mobility MobilityKind
	// HotspotCount, HotspotAttraction and HotspotSpread parameterize the
	// hotspot model (shared attraction points that crowd cells), used when
	// Mobility is MobilityHotspot.
	HotspotCount      int
	HotspotAttraction float64
	HotspotSpread     float64

	// FeatureDim is the appearance vector dimensionality.
	FeatureDim int
	// ObsNoise is the per-dimension appearance variation between
	// observations of the same person; it calibrates matching accuracy.
	ObsNoise float64
	// PixelNoise is per-pixel sensor noise in gray levels.
	PixelNoise float64

	// ELocNoise is the standard deviation, in meters, of E-localization
	// error; it produces drifting EIDs near cell borders.
	ELocNoise float64
	// VagueWidth is the width in meters of the vague zone along cell
	// borders (paper Fig. 2); zero disables vague zones.
	VagueWidth float64
	// InclusiveFrac is the minimum fraction of a window's ticks an EID must
	// be observed in a cell to be attributed inclusive there.
	InclusiveFrac float64
	// MinFrac is the minimum occurrence fraction to appear at all; EIDs
	// between MinFrac and InclusiveFrac are attributed vague.
	MinFrac float64

	// EIDMissingRate is the fraction of persons carrying no device.
	EIDMissingRate float64
	// VIDMissingRate is the per-detection probability a person present in a
	// cell yields no detection (occlusion / missed detection).
	VIDMissingRate float64
}

// DefaultConfig returns the paper's experiment setup under the ideal setting
// (single-time-point scenarios, no noise or missing data).
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		NumPersons:     1000,
		RegionSide:     1000,
		Density:        60,
		Layout:         LayoutGrid,
		NumWindows:     128,
		TicksPerWindow: 1,
		TickInterval:   2 * time.Minute,
		SpeedMin:       0.5,
		SpeedMax:       2.0,
		PauseMax:       20 * time.Second,
		FeatureDim:     64,
		ObsNoise:       0.15,
		PixelNoise:     1.0,
		InclusiveFrac:  0.7,
		MinFrac:        0.2,
	}
}

// Practical returns a copy of c switched to the practical setting: multi-tick
// windows, E-localization noise, and vague zones sized to the noise.
func (c Config) Practical() Config {
	c.TicksPerWindow = 5
	c.TickInterval = 6 * time.Second
	c.ELocNoise = 15
	c.VagueWidth = 20
	return c
}

// DescriptorDim returns the per-detection feature dimensionality, which is
// the appearance dimensionality.
func (c Config) DescriptorDim() int { return c.FeatureDim }

// NumCells returns the number of cells implied by NumPersons and Density.
func (c Config) NumCells() int {
	n := int(math.Round(float64(c.NumPersons) / c.Density))
	if n < 1 {
		n = 1
	}
	return n
}

// Region returns the square region bounds.
func (c Config) Region() geo.Rect {
	return geo.Square(geo.Pt(0, 0), c.RegionSide)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumPersons < 1:
		return fmt.Errorf("%w: NumPersons=%d", ErrBadConfig, c.NumPersons)
	case c.RegionSide <= 0:
		return fmt.Errorf("%w: RegionSide=%f", ErrBadConfig, c.RegionSide)
	case c.Density <= 0:
		return fmt.Errorf("%w: Density=%f", ErrBadConfig, c.Density)
	case c.Layout != LayoutGrid && c.Layout != LayoutHex:
		return fmt.Errorf("%w: Layout=%d", ErrBadConfig, c.Layout)
	case c.NumWindows < 1:
		return fmt.Errorf("%w: NumWindows=%d", ErrBadConfig, c.NumWindows)
	case c.TicksPerWindow < 1:
		return fmt.Errorf("%w: TicksPerWindow=%d", ErrBadConfig, c.TicksPerWindow)
	case c.TickInterval <= 0:
		return fmt.Errorf("%w: TickInterval=%v", ErrBadConfig, c.TickInterval)
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("%w: speeds [%f, %f]", ErrBadConfig, c.SpeedMin, c.SpeedMax)
	case c.Mobility != MobilityWaypoint && c.Mobility != MobilityHotspot:
		return fmt.Errorf("%w: mobility %d", ErrBadConfig, c.Mobility)
	case c.Mobility == MobilityHotspot && (c.HotspotCount < 1 || c.HotspotAttraction < 0 || c.HotspotAttraction > 1 || c.HotspotSpread < 0):
		return fmt.Errorf("%w: hotspot parameters", ErrBadConfig)
	case c.FeatureDim < 2:
		return fmt.Errorf("%w: FeatureDim=%d", ErrBadConfig, c.FeatureDim)
	case c.ObsNoise < 0 || c.PixelNoise < 0 || c.ELocNoise < 0 || c.VagueWidth < 0:
		return fmt.Errorf("%w: negative noise parameter", ErrBadConfig)
	case c.InclusiveFrac <= 0 || c.InclusiveFrac > 1:
		return fmt.Errorf("%w: InclusiveFrac=%f", ErrBadConfig, c.InclusiveFrac)
	case c.MinFrac < 0 || c.MinFrac > c.InclusiveFrac:
		return fmt.Errorf("%w: MinFrac=%f", ErrBadConfig, c.MinFrac)
	case c.EIDMissingRate < 0 || c.EIDMissingRate >= 1:
		return fmt.Errorf("%w: EIDMissingRate=%f", ErrBadConfig, c.EIDMissingRate)
	case c.VIDMissingRate < 0 || c.VIDMissingRate >= 1:
		return fmt.Errorf("%w: VIDMissingRate=%f", ErrBadConfig, c.VIDMissingRate)
	}
	return nil
}
