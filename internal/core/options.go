// Package core orchestrates EV-Matching end to end: the E stage (EID set
// splitting over the scenario store), the V stage (VID filtering with
// post-order rule-out), matching refining for the practical setting, and the
// EDP baseline of Teng et al. that the paper compares against. It supports
// elastic matching sizes — a single EID, any subset, or the universal set —
// and serial, parallel (in-process MapReduce), or custom (e.g. distributed
// cluster) execution.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"evmatching/internal/mapreduce"
)

// Algorithm selects the matching algorithm.
type Algorithm int

// Algorithms.
const (
	// AlgorithmSS is the paper's set-splitting EV-Matching.
	AlgorithmSS Algorithm = iota + 1
	// AlgorithmEDP is the baseline from [24]: per-EID E-filtering and
	// V-identification with no cross-EID scenario reuse.
	AlgorithmEDP
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmSS:
		return "SS"
	case AlgorithmEDP:
		return "EDP"
	default:
		return "invalid"
	}
}

// Mode selects how stages execute.
type Mode int

// Modes.
const (
	// ModeSerial runs both stages single-threaded (Algorithm 1 reference).
	ModeSerial Mode = iota + 1
	// ModeParallel runs the MapReduce-parallelized stages (Algorithm 3 and
	// §V-C) on an in-process executor.
	ModeParallel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSerial:
		return "serial"
	case ModeParallel:
		return "parallel"
	default:
		return "invalid"
	}
}

// ScanOrder selects the order in which the E stage consumes time windows.
type ScanOrder int

// Scan orders.
const (
	// ScanShuffled visits windows in a seeded random order, the paper's
	// Algorithm 3 preprocess step ("one random timestamp at a time").
	ScanShuffled ScanOrder = iota + 1
	// ScanInOrder visits windows in ascending event-time order — exactly the
	// order a streaming consumer observes them. The batch run under
	// ScanInOrder is the reference the internal/stream replay path must
	// reproduce bit for bit (see DESIGN.md §10).
	ScanInOrder
)

// String implements fmt.Stringer.
func (s ScanOrder) String() string {
	switch s {
	case ScanShuffled:
		return "shuffled"
	case ScanInOrder:
		return "in-order"
	default:
		return "invalid"
	}
}

// ErrBadOptions reports invalid matcher options.
var ErrBadOptions = errors.New("core: invalid options")

// Options parameterizes a Matcher.
type Options struct {
	// Algorithm defaults to AlgorithmSS.
	Algorithm Algorithm
	// Mode defaults to ModeSerial.
	Mode Mode
	// Workers sizes the parallel executor; 0 means GOMAXPROCS.
	Workers int
	// Executor, when non-nil, overrides the executor derived from Mode —
	// the hook for running stages on a distributed cluster.
	Executor mapreduce.Executor
	// Seed drives scenario-order randomization; equal seeds give equal
	// matchings. Defaults to 1.
	Seed int64
	// ScanOrder is the window order of the E stage. Defaults to ScanShuffled
	// (the paper's randomized timestamp order); ScanInOrder pins the
	// ascending event-time order shared with the streaming path.
	ScanOrder ScanOrder
	// AcceptMajority is the vote fraction a match must win to be accepted
	// (refining re-runs the rest). Defaults to 0.7.
	AcceptMajority float64
	// MaxRefineRounds bounds matching refining (paper Algorithm 2).
	// Defaults to 3 for SS; EDP never refines.
	MaxRefineRounds int
	// WorkFactor scales per-patch feature-extraction cost, modeling real
	// video processing. Defaults to 4.
	WorkFactor int
	// DisableBlocking makes the E stage scan every scenario of a window
	// instead of only the partition's candidates, those holding a live
	// target (DESIGN.md §13). It exists for one reason: the exhaustive scan
	// is the oracle that TestBlockedSplitEquivalence and internal/scaletest's
	// TestScaleSmoke compare the blocked path against. No command exposes
	// it; the blocked path is bit-identical and not slower on any measured
	// world.
	DisableBlocking bool
	// MemBudget caps the bytes of in-memory shuffle state in the parallel
	// executor; past it, per-reducer buckets spill to sorted temp-file runs
	// and k-way merge at reduce time (DESIGN.md §14). 0 disables spilling.
	// The spilled path is bit-identical to the in-memory one. Ignored when
	// Executor is set explicitly.
	MemBudget int64
	// SpillDir is where spill runs are written; empty means the OS temp
	// directory.
	SpillDir string
}

// Bounds on an EID's selected scenario list. padToUnique pads each list to at
// least minListLen scenarios: the split-tree path alone distinguishes the EID
// among the matching targets, but the VID probability product must also
// suppress bystanders who happen to share part of the trajectory; the paper's
// per-EID scenario counts (Fig. 7, about one more than EDP's) reflect the same
// padding. maxListLen caps both SS's padding and EDP's per-EID selection when
// the candidate intersection refuses to become a singleton.
const (
	minListLen = 3
	maxListLen = 14
)

// withDefaults returns a copy with defaults applied.
func (o Options) withDefaults() Options {
	if o.Algorithm == 0 {
		o.Algorithm = AlgorithmSS
	}
	if o.Mode == 0 {
		o.Mode = ModeSerial
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ScanOrder == 0 {
		o.ScanOrder = ScanShuffled
	}
	if o.AcceptMajority == 0 {
		o.AcceptMajority = 0.7
	}
	if o.MaxRefineRounds == 0 {
		o.MaxRefineRounds = 3
	}
	if o.WorkFactor == 0 {
		o.WorkFactor = 4
	}
	return o
}

// validate reports whether the (defaulted) options are usable.
func (o Options) validate() error {
	if o.Algorithm != AlgorithmSS && o.Algorithm != AlgorithmEDP {
		return fmt.Errorf("%w: algorithm %d", ErrBadOptions, o.Algorithm)
	}
	if o.Mode != ModeSerial && o.Mode != ModeParallel {
		return fmt.Errorf("%w: mode %d", ErrBadOptions, o.Mode)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: workers %d", ErrBadOptions, o.Workers)
	}
	if o.ScanOrder != ScanShuffled && o.ScanOrder != ScanInOrder {
		return fmt.Errorf("%w: scan order %d", ErrBadOptions, o.ScanOrder)
	}
	if o.AcceptMajority < 0 || o.AcceptMajority > 1 {
		return fmt.Errorf("%w: accept majority %f", ErrBadOptions, o.AcceptMajority)
	}
	if o.MaxRefineRounds < 0 {
		return fmt.Errorf("%w: refine rounds %d", ErrBadOptions, o.MaxRefineRounds)
	}
	if o.WorkFactor < 0 {
		return fmt.Errorf("%w: work factor %d", ErrBadOptions, o.WorkFactor)
	}
	if o.MemBudget < 0 {
		return fmt.Errorf("%w: mem budget %d", ErrBadOptions, o.MemBudget)
	}
	return nil
}

// effectiveWorkers resolves the worker count the default batch sizing
// assumes: the explicit Workers, else GOMAXPROCS — matching how
// mapreduce.ParallelExecutor sizes its pool.
func (o Options) effectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}
