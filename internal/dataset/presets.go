package dataset

import "fmt"

// Scale presets: named world shapes at the sizes the blocking index
// (DESIGN.md §13) is built for, selectable via `evgen -preset`. Both are
// fully seeded — equal names generate equal worlds — and keep descriptor
// dimensionality and detection density low so world memory is spent on the
// E side (the axis the blocking index scales), not on pixel patches.
const (
	// PresetSparseCity is a 100k-EID city at realistic sparsity: ~12.5k
	// cells (density 8), so any one EID co-occurs with a vanishing fraction
	// of the population and the posting index prunes almost every
	// (scenario, partition) probe. This is the scale-smoke and
	// BenchmarkMatchSSBlocked world.
	PresetSparseCity = "sparse-city"
	// PresetDenseCore is a 1M-EID stress world with crowded cells (density
	// 160): the blocking index's worst case, where nearly every scenario
	// holds a live target and pruning must cost nearly nothing. Generation
	// needs roughly a GB of memory — an offline world, not a CI one.
	PresetDenseCore = "dense-core"
)

// ScalePresetNames lists the preset names ScalePreset accepts.
func ScalePresetNames() []string { return []string{PresetSparseCity, PresetDenseCore} }

// ScalePreset returns the named scale preset's configuration.
func ScalePreset(name string) (Config, error) {
	cfg := DefaultConfig()
	switch name {
	case PresetSparseCity:
		cfg.NumPersons = 100_000
		cfg.Density = 8
		cfg.NumWindows = 12
		cfg.FeatureDim = 16
		cfg.VIDMissingRate = 0.9
	case PresetDenseCore:
		cfg.NumPersons = 1_000_000
		cfg.Density = 160
		cfg.NumWindows = 6
		cfg.FeatureDim = 8
		cfg.VIDMissingRate = 0.98
	default:
		return Config{}, fmt.Errorf("%w: unknown scale preset %q (have %v)", ErrBadConfig, name, ScalePresetNames())
	}
	return cfg, nil
}
