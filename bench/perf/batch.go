package perf

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
)

// batchWorkload times the batch matcher from input to complete result:
// core.New plus Match, serial SS, over a freshly generated world. The paper
// world is V-stage heavy; the sparse world is blocking- and E-stage heavy.
type batchWorkload struct {
	sparse bool
	short  bool

	genS    float64
	ds      *dataset.Dataset
	targets []ids.EID
	first   *core.Report // the warm-up match: the reference every rep must equal
	fpDiffs int
}

// rounds: a sparse world takes 2 s to generate, a paper world a quarter of
// that, so the paper workload can afford to average over more of them.
func (b *batchWorkload) rounds(float64) int {
	if b.sparse {
		return 3
	}
	return 6
}

func (b *batchWorkload) singleOp() bool { return false }

func (b *batchWorkload) setup(e *env, round int) error {
	seed := roundSeed(e.opts.Seed, round)
	cfg := paperConfig(seed, b.short)
	if b.sparse {
		var err error
		if cfg, err = sparseConfig(seed, b.short); err != nil {
			return err
		}
	}
	end := e.tr.Span("dataset", "Generate")
	start := time.Now()
	ds, err := dataset.Generate(cfg)
	b.genS = time.Since(start).Seconds()
	end()
	if err != nil {
		return err
	}
	b.ds, b.first, b.fpDiffs = ds, nil, 0
	b.targets = ds.AllEIDs()
	if b.sparse {
		b.targets = ds.SampleEIDs(sparseTargets(b.short), rand.New(rand.NewSource(seed)))
	}
	return nil
}

// match is the timed operation: a matcher built and run from cold.
func (b *batchWorkload) match(e *env) (*core.Report, float64, error) {
	start := time.Now()
	endNew := e.tr.Span("core", "New")
	m, err := core.New(b.ds, core.Options{})
	endNew()
	if err != nil {
		return nil, 0, err
	}
	endMatch := e.tr.Span("core", "Match")
	rep, err := m.Match(context.Background(), b.targets)
	endMatch()
	return rep, time.Since(start).Seconds(), err
}

func (b *batchWorkload) warm(e *env) error {
	rep, _, err := b.match(e)
	b.first = rep
	return err
}

func (b *batchWorkload) op(e *env) (opSample, error) {
	rep, secs, err := b.match(e)
	if err != nil {
		return opSample{}, err
	}
	if rep.Fingerprint() != b.first.Fingerprint() {
		b.fpDiffs++
	}
	return opSample{seconds: secs, items: float64(len(b.targets))}, nil
}

// verify checks that every timed match reproduced the warm-up match bit for
// bit and scores the match against the generator's ground truth.
func (b *batchWorkload) verify(_ *env, rr *roundResult) error {
	if b.fpDiffs > 0 {
		rr.failed += b.fpDiffs
		rr.notes = append(rr.notes, fmt.Sprintf("FAILED: %d matches differ from the first match's fingerprint", b.fpDiffs))
	}
	rr.accuracy, rr.scored = b.first.Accuracy(b.ds.TruthVID), len(b.first.Targets)
	rr.check(rr.accuracy > 0, "no target matched its true VID")
	return nil
}

func (b *batchWorkload) teardown(*env) { b.ds, b.targets, b.first = nil, nil, nil }

func (b *batchWorkload) layers(e *env) (*probeInput, error) {
	in := &probeInput{ds: b.ds, targets: b.targets, genS: b.genS}
	// A batch world has no observation log of its own; the stream, shardrpc
	// and server layers are probed on a paper-scale world from the same seed.
	if err := in.addProbeLog(e, roundSeed(e.opts.Seed, 0), b.short); err != nil {
		return nil, err
	}
	return in, nil
}
