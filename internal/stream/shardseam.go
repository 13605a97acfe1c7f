package stream

import (
	"fmt"
	"time"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/scenario"
)

// This file is the shard seam: the exported types and pure windower through
// which a Router can drive shard windowers that live outside its own
// process. The in-process path (runShard) and the seam path compute the
// same function — ShardWindower.Step mirrors runShard's message handling
// statement for statement — so a remote shard's emissions are bit-identical
// to an in-process shard's, and the shard-invariance battery pins
// remote ≡ in-process ≡ unsharded ≡ batch.
//
// internal/shardrpc builds on this seam: its supervisor implements
// ShardRunner by proxying ShardRun over net/rpc to a worker process that
// hosts a ShardWindower, and falls back to RunShardInProcess when no worker
// can be had.

// ShardParams is the windowing/extraction slice of a RouterConfig that a
// shard windower needs — the full Config carries process-local state
// (Clock, Metrics, target sets) that must not cross the wire.
type ShardParams struct {
	// WindowMS is the event-time window width.
	WindowMS int64
	// Dim is the feature descriptor dimensionality.
	Dim int
	// WorkFactor scales the extraction work per patch.
	WorkFactor int
	// LeaseTTL is the shard liveness lease; runners derive their renewal
	// cadence from it.
	LeaseTTL time.Duration
}

// validate guards windower construction against hostile wire values: a zero
// window would divide by zero in the bucket assignment.
func (p ShardParams) validate() error {
	if p.WindowMS <= 0 {
		return fmt.Errorf("%w: shard window %dms", ErrBadConfig, p.WindowMS)
	}
	if p.Dim < 2 {
		return fmt.Errorf("%w: shard dim %d", ErrBadConfig, p.Dim)
	}
	if p.WorkFactor < 1 {
		return fmt.Errorf("%w: shard work factor %d", ErrBadConfig, p.WorkFactor)
	}
	return nil
}

// ShardSealed is one sealed (window, cell) closure in wire form: the
// EScenario's EID map flattened to a sorted slice (the same canonical form
// checkpoints use, so equal closures encode to equal bytes) and the
// extracted feature matrix as its row-major storage. An empty Dets means the
// bucket sealed with no V side; FeatDim == 0 means extraction was not
// performed (or failed) and the merge stage re-extracts lazily. It is also
// the spill record of an evicted sealed scenario (spill.go), EIDs empty.
type ShardSealed struct {
	Window  int
	Cell    geo.CellID
	EIDs    []BucketEID
	Dets    []scenario.Detection
	FeatDim int
	Feat    []float64
}

// matrix adopts the feature payload as a matrix of one row per detection
// (no copy), or returns nil when none travelled. A payload whose shape does
// not match the detections is an error, never indexed.
func (w *ShardSealed) matrix() (*feature.Matrix, error) {
	if w.FeatDim == 0 && len(w.Feat) == 0 {
		return nil, nil
	}
	if w.FeatDim < 1 || len(w.Feat) != w.FeatDim*len(w.Dets) {
		return nil, fmt.Errorf("stream: feature payload of %d values, dim %d, for %d detections",
			len(w.Feat), w.FeatDim, len(w.Dets))
	}
	return feature.MatrixOf(w.FeatDim, w.Feat)
}

// ShardOut is one shard emission in wire form: a round of sealed window
// closures, or a sub-checkpoint snapshot acknowledging a journal position.
type ShardOut struct {
	Kind ShardOutKind

	// Round/Target/MaxTS echo the close round (Kind == ShardOutRound).
	Round  int
	Target int
	MaxTS  int64
	Sealed []ShardSealed

	// SnapPos/Snapshot carry a sub-checkpoint (Kind == ShardOutSnap).
	SnapPos  int64
	Snapshot []ShardBucket
}

// sealedToWire puts one sealed closure in wire form. The EID map is walked
// in sorted order; the detections and the feature matrix's storage are
// shared, not copied — a sealed closure is never written again.
func sealedToWire(s sealedScenario) ShardSealed {
	w := ShardSealed{Window: s.key.Window, Cell: s.key.Cell}
	if s.esc != nil {
		w.EIDs = sortedBucketEIDs(s.esc.EIDs)
	}
	if s.vsc != nil {
		w.Dets = s.vsc.Detections
	}
	if s.feats != nil {
		w.FeatDim, w.Feat = s.feats.Dim(), s.feats.Data()
	}
	return w
}

// toSealed reconstructs the merge-stage form of a wire closure, adopting its
// detections and feature block. A feature payload whose shape does not match
// the detections is dropped rather than trusted — the merge-side filter then
// re-extracts lazily, which computes the identical matrix, so a mangled (or
// hostile) payload can cost time but never correctness.
func (w ShardSealed) toSealed() sealedScenario {
	k := bucketKey{Window: w.Window, Cell: w.Cell}
	esc := &scenario.EScenario{Cell: w.Cell, Window: w.Window, EIDs: bucketEIDSet(w.EIDs)}
	s := sealedScenario{key: k, esc: esc}
	if len(w.Dets) == 0 {
		return s
	}
	s.vsc = &scenario.VScenario{Cell: w.Cell, Window: w.Window, Detections: w.Dets}
	if m, err := w.matrix(); err == nil {
		s.feats = m
	}
	return s
}

// outFromWire adapts a runner emission to the merge-stage channel form.
func outFromWire(shard int, o ShardOut) shardOut {
	out := shardOut{
		shard:    shard,
		kind:     o.Kind,
		round:    o.Round,
		target:   o.Target,
		maxTS:    o.MaxTS,
		snapPos:  o.SnapPos,
		snapshot: o.Snapshot,
	}
	if o.Kind == ShardOutRound {
		out.sealed = make([]sealedScenario, 0, len(o.Sealed))
		for _, s := range o.Sealed {
			out.sealed = append(out.sealed, s.toSealed())
		}
	}
	return out
}

// ShardWindower is one shard's pure event-time accumulator behind the seam:
// the same bucket/seal/extract/snapshot logic runShard runs inline, exposed
// as a step function a worker process can host. It is not safe for
// concurrent use; the caller serializes Step.
type ShardWindower struct {
	p       ShardParams
	buckets map[bucketKey]*bucket
	xt      feature.Extractor
	xbuf    feature.ExtractBuf
}

// NewShardWindower builds a windower restored from a sub-checkpoint image
// (nil for a fresh shard).
func NewShardWindower(p ShardParams, initial []ShardBucket) (*ShardWindower, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	w := &ShardWindower{
		p:       p,
		buckets: make(map[bucketKey]*bucket, len(initial)),
		xt:      feature.Extractor{Dim: p.Dim, WorkFactor: p.WorkFactor},
	}
	for _, cb := range initial {
		w.buckets[bucketKey{Window: cb.Window, Cell: cb.Cell}] = bucketFromCheckpoint(cb)
	}
	return w, nil
}

// Step applies one journalled message and returns the emission it produces,
// if any. Observations absorb into their bucket (nil emission); close
// rounds seal every bucket below the target in ascending (window, cell)
// order with features extracted shard-side; snapshot requests return a
// deep-copied bucket image stamped with the journal position. Hostile
// input — an invalid observation or unknown kind — errors without
// panicking; the windower's state is unchanged by a failed Step.
func (w *ShardWindower) Step(m ShardMsg) (*ShardOut, error) {
	switch m.Kind {
	case ShardMsgObs:
		if err := m.Obs.Validate(); err != nil {
			return nil, err
		}
		k := bucketKey{Window: int(m.Obs.TS / w.p.WindowMS), Cell: m.Obs.Cell}
		b := w.buckets[k]
		if b == nil {
			b = newBucket()
			w.buckets[k] = b
		}
		b.absorb(m.Obs)
		return nil, nil
	case ShardMsgClose:
		var keys []bucketKey
		for k := range w.buckets {
			if k.Window < m.Target {
				keys = append(keys, k)
			}
		}
		sortBucketKeys(keys)
		sealed := make([]ShardSealed, 0, len(keys))
		for _, k := range keys {
			esc, vsc := sealBucket(k, w.buckets[k])
			sealed = append(sealed, sealedToWire(sealedScenario{key: k, esc: esc, vsc: vsc, feats: extractSealed(w.xt, vsc, &w.xbuf)}))
			delete(w.buckets, k)
		}
		return &ShardOut{Kind: ShardOutRound, Round: m.Round, Target: m.Target, MaxTS: m.MaxTS, Sealed: sealed}, nil
	case ShardMsgSnap:
		keys := make([]bucketKey, 0, len(w.buckets))
		for k := range w.buckets {
			keys = append(keys, k)
		}
		sortBucketKeys(keys)
		snap := make([]ShardBucket, 0, len(keys))
		for _, k := range keys {
			snap = append(snap, bucketToCheckpoint(k, w.buckets[k]))
		}
		return &ShardOut{Kind: ShardOutSnap, SnapPos: m.Pos, Snapshot: snap}, nil
	}
	return nil, fmt.Errorf("stream: unknown shard message kind %d", m.Kind)
}

// ShardRun is one shard incarnation handed to a ShardRunner: the restore
// image, the message stream, and the callbacks wiring the runner back into
// the router's emission, lease, and failure-detection machinery. In, Stop,
// Emit, and Renew are scoped to this incarnation — once the router
// redispatches the shard, Renew returns false and Emit's deliveries are
// deduplicated away, so a stale runner can wind down at its leisure.
type ShardRun struct {
	// Shard and Incarnation identify the run.
	Shard       int
	Incarnation int
	// Params configures the windower.
	Params ShardParams
	// Initial is the sub-checkpoint image to restore from (nil = fresh).
	Initial []ShardBucket
	// In carries the journalled message stream.
	In <-chan ShardMsg
	// Stop closes when the incarnation is superseded or the router closes.
	Stop <-chan struct{}
	// Emit delivers one emission to the merge stage. A false return means
	// the incarnation was stopped; the runner should return promptly.
	Emit func(ShardOut) bool
	// Renew renews the shard's liveness lease. A false return means the
	// lease was superseded; the runner should return promptly.
	Renew func() bool
	// Redispatch asks the router to declare this incarnation dead now and
	// hand the shard to a replacement — the supervisor calls it the moment
	// a worker process dies, instead of waiting out the lease. It is a
	// no-op if the incarnation was already superseded.
	Redispatch func() error
}

// ShardRunner runs shard incarnations on behalf of a Router. RunShard is
// called on a fresh goroutine per incarnation and must not return until the
// run is stopped, superseded, or finished failing over (it may call
// run.Redispatch and then return). internal/shardrpc's Supervisor is the
// cross-process implementation.
type ShardRunner interface {
	RunShard(run ShardRun)
}

// RunShardInProcess drives a ShardRun on a local ShardWindower — the
// fallback path a supervisor uses when no worker process can be spawned,
// and the reference implementation of the seam's contract. It matches
// runShard's lease cadence: a ticker renewal while idle, plus a renewal
// every renewEveryMsgs messages while busy.
func RunShardInProcess(run ShardRun) {
	w, err := NewShardWindower(run.Params, run.Initial)
	if err != nil {
		return
	}
	ttl := run.Params.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultShardLeaseTTL
	}
	tick := time.NewTicker(ttl / 4)
	defer tick.Stop()
	step := 0
	for {
		select {
		case <-run.Stop:
			return
		case <-tick.C:
			if run.Renew != nil && !run.Renew() {
				return
			}
		case m := <-run.In:
			step++
			out, err := w.Step(m)
			if err != nil {
				// The router never journals an invalid message, so an error
				// here means the run itself is corrupt; stand down and let
				// the lease-based failure detector redispatch.
				return
			}
			if out != nil && !run.Emit(*out) {
				return
			}
			if step%renewEveryMsgs == 0 && run.Renew != nil && !run.Renew() {
				return
			}
		}
	}
}
