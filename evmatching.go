// Package evmatching reproduces EV-Matching (Li et al., ICDCS 2017):
// matching electronic identities (EIDs — WiFi MACs, IMSIs captured by
// network infrastructure) to visual identities (VIDs — person appearances in
// surveillance video) purely from their spatiotemporal co-occurrence.
//
// The library generates synthetic EV worlds (random-waypoint mobility,
// appearance galleries, E-localization noise, missing data), runs the
// paper's set-splitting algorithm with VID filtering and matching refining,
// compares against the EDP baseline, and parallelizes both stages on a
// from-scratch MapReduce engine with an optional distributed runtime over
// net/rpc.
//
// Quick start:
//
//	ds, err := evmatching.Generate(evmatching.DefaultDatasetConfig())
//	m, err := evmatching.NewMatcher(ds, evmatching.Options{})
//	report, err := m.Match(ctx, ds.SampleEIDs(100, rng))
//	fmt.Println(report.Accuracy(ds.TruthVID))
package evmatching

import (
	"context"
	"io"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/experiments"
	"evmatching/internal/fusion"
	"evmatching/internal/ids"
	"evmatching/internal/trajectory"
	"evmatching/internal/vfilter"
)

// Identity types.
type (
	// EID is an electronic identity (e.g. a WiFi MAC address).
	EID = ids.EID
	// VID is a visual identity label.
	VID = ids.VID
)

// Identity sentinels.
const (
	// NoEID marks a person carrying no electronic device.
	NoEID = ids.None
	// NoVID marks a failed or missing visual identification.
	NoVID = ids.NoVID
)

// Dataset types.
type (
	// DatasetConfig parameterizes synthetic world generation.
	DatasetConfig = dataset.Config
	// Dataset is a generated EV world: scenarios plus ground truth.
	Dataset = dataset.Dataset
	// Person is one simulated human object.
	Person = dataset.Person
)

// Layout kinds for DatasetConfig.Layout.
const (
	LayoutGrid = dataset.LayoutGrid
	LayoutHex  = dataset.LayoutHex
)

// Matcher types.
type (
	// Options parameterizes a Matcher.
	Options = core.Options
	// Matcher matches EIDs to VIDs over one dataset.
	Matcher = core.Matcher
	// Report is the outcome of one matching run.
	Report = core.Report
	// MatchResult is the per-EID outcome.
	MatchResult = vfilter.Result
)

// Algorithm and mode selectors for Options.
const (
	// AlgorithmSS is the paper's set-splitting EV-Matching (the default).
	AlgorithmSS = core.AlgorithmSS
	// AlgorithmEDP is the per-EID baseline of Teng et al.
	AlgorithmEDP = core.AlgorithmEDP
	// ModeSerial runs the reference single-threaded stages (the default).
	ModeSerial = core.ModeSerial
	// ModeParallel runs the MapReduce-parallelized stages.
	ModeParallel = core.ModeParallel
)

// DefaultDatasetConfig returns the paper's evaluation setup: 1000 human
// objects with WiFi-MAC EIDs moving by random waypoint across a
// 1000 m × 1000 m cell grid, under the ideal setting.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// ScaleDatasetConfig returns a named scale preset — a world shape at the
// sizes the blocking index (DESIGN.md §13) is built for. See
// ScalePresetNames for the accepted names.
func ScaleDatasetConfig(name string) (DatasetConfig, error) { return dataset.ScalePreset(name) }

// ScalePresetNames lists the preset names ScaleDatasetConfig accepts.
func ScalePresetNames() []string { return dataset.ScalePresetNames() }

// Generate builds a synthetic EV world. Generation is deterministic in the
// configuration, including its Seed.
func Generate(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// LoadDataset reads a dataset written by (*Dataset).SaveFile.
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// NewMatcher creates a matcher over the dataset. The zero Options selects
// the SS algorithm in serial mode with the paper's defaults.
func NewMatcher(ds *Dataset, opts Options) (*Matcher, error) { return core.New(ds, opts) }

// Match is a convenience wrapper: generate a matcher with opts and match the
// targets in one call.
func Match(ctx context.Context, ds *Dataset, opts Options, targets []EID) (*Report, error) {
	m, err := core.New(ds, opts)
	if err != nil {
		return nil, err
	}
	return m.Match(ctx, targets)
}

// Fusion types: the fused EV index produced after matching, answering
// single queries over both data sources (paper §I).
type (
	// FusionIndex is the bidirectional EID-VID index of a matching run.
	FusionIndex = fusion.Index
	// Sighting is one fused (electronic and/or visual) observation.
	Sighting = fusion.Sighting
	// Presence is one fused identity observed at a queried cell/window.
	Presence = fusion.Presence
)

// BuildFusionIndex folds a matching report into a fused-query index over the
// dataset: VIDOf/EIDOf lookups, fused trajectories, and who-was-where
// queries spanning both modalities.
func BuildFusionIndex(ds *Dataset, rep *Report) (*FusionIndex, error) {
	return fusion.BuildIndex(ds, rep)
}

// Trajectory types (paper §III): one E-Trajectory per device, multiple
// V-Trajectory segments per appearance.
type (
	// ETrajectory is an EID's E-Location history.
	ETrajectory = trajectory.ETrajectory
	// VTrajectory is a VID's V-Location history, split into segments.
	VTrajectory = trajectory.VTrajectory
)

// BuildETrajectory extracts an EID's coarse trajectory from the dataset.
func BuildETrajectory(ds *Dataset, e EID) (*ETrajectory, error) {
	return trajectory.BuildE(ds.Store, e)
}

// BuildVTrajectory extracts a VID's trajectory segments; a new segment
// starts whenever the VID is unseen for more than maxGap windows.
func BuildVTrajectory(ds *Dataset, v VID, maxGap int) (*VTrajectory, error) {
	return trajectory.BuildV(ds.Store, v, maxGap)
}

// TrajectorySimilarity scores how spatiotemporally close an E-Trajectory and
// a V-Trajectory are, in [0, 1].
func TrajectorySimilarity(ds *Dataset, et *ETrajectory, vt *VTrajectory) (float64, error) {
	return trajectory.Similarity(et, vt, ds.Layout.Bounds())
}

// Experiment configurations.
type ExperimentConfig = experiments.Config

// PaperExperiments returns the full-scale sweep configuration of §VI.
func PaperExperiments() ExperimentConfig { return experiments.Paper() }

// QuickExperiments returns a shrunken sweep for fast runs.
func QuickExperiments() ExperimentConfig { return experiments.Quick() }

// RunExperiments regenerates every table and figure of the paper's
// evaluation, writing results to w and progress lines to progress (nil
// discards them).
func RunExperiments(ctx context.Context, cfg ExperimentConfig, w, progress io.Writer) error {
	r, err := experiments.NewRunner(cfg, progress)
	if err != nil {
		return err
	}
	return r.RunAll(ctx, w)
}
