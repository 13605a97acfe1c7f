package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
)

// Point is one measurement: one algorithm matched n EIDs on one dataset.
type Point struct {
	Algorithm core.Algorithm
	N         int
	// Selected is the number of distinct scenarios selected (reuse counted
	// once).
	Selected int
	// PerEID is the average selected-list length.
	PerEID float64
	// ETime and VTime are the stage processing times.
	ETime time.Duration
	VTime time.Duration
	// Accuracy is the fraction of correctly matched EIDs.
	Accuracy float64
	// Processed is the number of scenarios actually run through feature
	// extraction (with SS's cache, at most Selected; EDP re-processes).
	Processed int
	// blockCandidates counts the scenarios SS's E-stage splits probed, and
	// extractions the patches the V stage ran through feature extraction:
	// each stage's work, deterministic where its time is not.
	blockCandidates int64
	extractions     int
}

// Runner executes experiments with dataset and measurement memoization, so
// figures that share a sweep reuse its runs. A Runner is not safe for
// concurrent use.
type Runner struct {
	cfg  Config
	log  io.Writer
	data map[string]*dataset.Dataset
	runs map[string]Point
}

// NewRunner creates a runner; progress lines go to log (nil discards them).
func NewRunner(cfg Config, log io.Writer) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if log == nil {
		log = io.Discard
	}
	return &Runner{
		cfg:  cfg,
		log:  log,
		data: make(map[string]*dataset.Dataset),
		runs: make(map[string]Point),
	}, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// datasetFor generates (or fetches) the dataset for a config variant.
func (r *Runner) datasetFor(key string, mutate func(*dataset.Config)) (*dataset.Dataset, error) {
	if ds, ok := r.data[key]; ok {
		return ds, nil
	}
	cfg := r.cfg.Base
	if mutate != nil {
		mutate(&cfg)
	}
	start := time.Now()
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: dataset %q: %w", key, err)
	}
	fmt.Fprintf(r.log, "# dataset %s: %d scenarios, %d cells (%v)\n",
		key, ds.Store.Len(), ds.Layout.NumCells(), time.Since(start).Round(time.Millisecond))
	r.data[key] = ds
	return ds, nil
}

// run executes one (dataset, algorithm, n) measurement, memoized.
func (r *Runner) run(ctx context.Context, dsKey string, mutate func(*dataset.Config), alg core.Algorithm, n int) (Point, error) {
	return r.runWith(ctx, dsKey, mutate, alg, n, "", nil)
}

// runWith is run with an additional matcher-option override, memoized under
// optsKey (empty for the default options). Measurements average over
// Config.Runs matcher seeds.
func (r *Runner) runWith(ctx context.Context, dsKey string, mutate func(*dataset.Config), alg core.Algorithm, n int, optsKey string, optsMut func(*core.Options)) (Point, error) {
	memoKey := fmt.Sprintf("%s|%v|%d|%s", dsKey, alg, n, optsKey)
	if p, ok := r.runs[memoKey]; ok {
		return p, nil
	}
	ds, err := r.datasetFor(dsKey, mutate)
	if err != nil {
		return Point{}, err
	}
	runs := r.cfg.Runs
	if runs < 1 {
		runs = 1
	}
	// Target sampling is deterministic per (dataset, n) and shared by both
	// algorithms so they match the exact same EIDs.
	rng := rand.New(rand.NewSource(int64(n)*31 + 7))
	targets := ds.SampleEIDs(n, rng)

	var p Point
	for run := 0; run < runs; run++ {
		opts := r.cfg.Matcher
		opts.Algorithm = alg
		if optsMut != nil {
			optsMut(&opts)
		}
		if opts.Seed == 0 {
			opts.Seed = 1
		}
		opts.Seed += int64(run) * 7_727
		m, err := core.New(ds, opts)
		if err != nil {
			return Point{}, err
		}
		rep, err := m.Match(ctx, targets)
		if err != nil {
			return Point{}, fmt.Errorf("experiments: %s: %w", memoKey, err)
		}
		p.Algorithm = alg
		p.N = len(targets)
		p.Selected += rep.SelectedScenarios
		p.PerEID += rep.AvgScenariosPerEID()
		p.ETime += rep.ETime
		p.VTime += rep.VTime
		p.Accuracy += rep.Accuracy(func(e ids.EID) ids.VID { return ds.TruthVID(e) })
		p.Processed += rep.VStats.ScenariosProcessed
		p.blockCandidates += rep.BlockCandidates
		p.extractions += rep.VStats.Extractions
	}
	p.Selected /= runs
	p.PerEID /= float64(runs)
	p.ETime /= time.Duration(runs)
	p.VTime /= time.Duration(runs)
	p.Accuracy /= float64(runs)
	p.Processed /= runs
	p.blockCandidates /= int64(runs)
	p.extractions /= runs
	fmt.Fprintf(r.log, "# run %-28s sel=%-5d perEID=%-5.2f E=%-10v V=%-10v acc=%.2f%%\n",
		memoKey, p.Selected, p.PerEID, p.ETime.Round(time.Millisecond),
		p.VTime.Round(time.Millisecond), p.Accuracy*100)
	r.runs[memoKey] = p
	return p, nil
}

// both runs SS and EDP on the same sweep point.
func (r *Runner) both(ctx context.Context, dsKey string, mutate func(*dataset.Config), n int) (ss, edp Point, err error) {
	ss, err = r.run(ctx, dsKey, mutate, core.AlgorithmSS, n)
	if err != nil {
		return Point{}, Point{}, err
	}
	edp, err = r.run(ctx, dsKey, mutate, core.AlgorithmEDP, n)
	if err != nil {
		return Point{}, Point{}, err
	}
	return ss, edp, nil
}

// Dataset config mutators for the sweep families.

func densityMutator(d float64) func(*dataset.Config) {
	return func(c *dataset.Config) { c.Density = d }
}

func eidMissMutator(rate float64) func(*dataset.Config) {
	return func(c *dataset.Config) { c.EIDMissingRate = rate }
}

func vidMissMutator(rate float64) func(*dataset.Config) {
	return func(c *dataset.Config) { c.VIDMissingRate = rate }
}
