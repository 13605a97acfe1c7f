package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"evmatching/internal/dataset"
	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
	"evmatching/internal/vfilter"
)

// ErrNoDataset reports construction without a dataset.
var ErrNoDataset = errors.New("core: nil dataset")

// ErrNoTargets reports a Match call with no target EIDs.
var ErrNoTargets = errors.New("core: no target EIDs")

// Matcher matches EIDs to VIDs over one dataset. A Matcher is safe to reuse
// for multiple Match calls, concurrent ones included; each call works from
// fresh state. The postings its E stage reads belong to ds.Store (DESIGN.md
// §13), which writes them at Add.
type Matcher struct {
	ds   *dataset.Dataset
	opts Options
	// spill accumulates the budgeted shuffle's counters across every run of
	// the matcher; nil when MemBudget is 0.
	spill *spill.Stats
}

// New creates a Matcher over the dataset.
func New(ds *dataset.Dataset, opts Options) (*Matcher, error) {
	if ds == nil {
		return nil, ErrNoDataset
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m := &Matcher{ds: ds, opts: opts}
	// A budgeted run always gets a stats sink so Report.Spill can prove
	// (or disprove) that the budget actually forced out-of-core work.
	if opts.MemBudget > 0 {
		m.spill = &spill.Stats{}
	}
	return m, nil
}

// Options returns the matcher's effective (defaulted) options.
func (m *Matcher) Options() Options { return m.opts }

// Match matches the target EIDs to their VIDs. Matching size is elastic:
// pass one EID, any subset, or every EID in the dataset (universal
// matching). Unknown EIDs are allowed — they simply fail to match.
func (m *Matcher) Match(ctx context.Context, targets []ids.EID) (*Report, error) {
	targets = dedupEIDs(targets)
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	filter, err := vfilter.New(m.ds.Store, vfilter.Config{
		Extractor:      feature.Extractor{Dim: m.ds.Config.DescriptorDim(), WorkFactor: m.opts.WorkFactor},
		AcceptMajority: m.opts.AcceptMajority,
	})
	if err != nil {
		return nil, err
	}
	var rep *Report
	switch m.opts.Algorithm {
	case AlgorithmSS:
		rep, err = m.matchSS(ctx, targets, filter)
	case AlgorithmEDP:
		rep, err = m.matchEDP(ctx, targets)
	default:
		return nil, fmt.Errorf("%w: algorithm %v", ErrBadOptions, m.opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	// Safety net for paged stores: if any legacy V accessor failed to
	// reload an evicted payload mid-run, the scenario read as "no
	// detections" and the report could be silently wrong — fail instead.
	if perr := m.ds.Store.PageErr(); perr != nil {
		return nil, fmt.Errorf("core: match ran over incompletely paged state: %w", perr)
	}
	rep.Spill = m.spill.Snapshot()
	return rep, nil
}

// executor returns the MapReduce executor for the configured mode.
func (m *Matcher) executor() mapreduce.Executor {
	if m.opts.Executor != nil {
		return m.opts.Executor
	}
	if m.opts.Mode == ModeParallel {
		return mapreduce.ParallelExecutor{
			Workers:   m.opts.Workers,
			MemBudget: m.opts.MemBudget,
			SpillDir:  m.opts.SpillDir,
			Stats:     m.spill,
		}
	}
	return mapreduce.SerialExecutor{}
}

// MatchAll performs universal matching: every EID in the dataset is labeled
// with its VID in one pass (paper §I: universal dataset matching).
func (m *Matcher) MatchAll(ctx context.Context) (*Report, error) {
	return m.Match(ctx, m.ds.AllEIDs())
}

// dedupEIDs drops duplicates and empty EIDs, returning a sorted copy.
func dedupEIDs(targets []ids.EID) []ids.EID {
	out := slices.Compact(ids.SortEIDs(slices.Clone(targets)))
	if len(out) > 0 && out[0] == ids.None {
		out = out[1:] // the empty EID sorts first
	}
	return out
}

// fanOut runs do(i) for every i in [0, n) on the caller's goroutine and
// min(workers, n)−1 more, each claiming the next unclaimed index. Claiming
// stops once ctx is cancelled or an index has failed, and a claimed index
// always runs, so every index below a failed one has run: the error returned
// is that of the lowest index that failed — with a deterministic do, the same
// at every worker count — else ctx's.
func fanOut(ctx context.Context, workers, n int, do func(i int) error) error {
	var (
		next   atomic.Int64
		stop   atomic.Bool
		mu     sync.Mutex // guards failAt and failed
		failAt = n
		failed error
	)
	work := func() {
		for !stop.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := do(i); err != nil {
				mu.Lock()
				if i < failAt {
					failAt, failed = i, err
				}
				mu.Unlock()
				stop.Store(true)
			}
		}
	}
	var others sync.WaitGroup
	for range min(workers, n) - 1 {
		others.Add(1)
		go func() {
			defer others.Done()
			work()
		}()
	}
	work()
	others.Wait()
	if failed != nil {
		return failed
	}
	return ctx.Err()
}

// rngFor derives a deterministic rand.Rand for a labeled purpose.
func (m *Matcher) rngFor(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(m.opts.Seed*1_000_003 + salt))
}
