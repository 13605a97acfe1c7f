package stream

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// This file is the windower and the shard seam around it. ShardWindower is
// the only (window, cell) bucketing in the package: the Engine owns one and
// calls absorb/seal/snapshot directly, a Router's in-process shards each run
// one through RunShardInProcess, and a worker process hosts one behind Step.
// All three therefore compute the same function by construction, and the
// shard-invariance battery pins remote ≡ in-process ≡ unsharded ≡ batch.
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

// ShardSealed is one sealed (window, cell) closure: what a windower's seal
// produces, the shard wire carries and the fold consumes. Dets are sorted
// (sortDetections), so the closure is independent of arrival order; an empty
// Dets means the bucket sealed with no V side. EIDs is the EID set flattened
// to a sorted slice (the same canonical form checkpoints use, so equal
// closures encode to equal bytes). FeatDim and Feat are the extracted feature
// matrix as its row-major storage; FeatDim == 0 means extraction was not
// performed (or failed) and the fold's filter extracts lazily. It is also the
// spill record of an evicted sealed scenario (spill.go), EIDs empty.
type ShardSealed struct {
	Window  int
	Cell    geo.CellID
	EIDs    []BucketEID
	Dets    []scenario.Detection
	FeatDim int
	Feat    []float64

	// eids is the sealed bucket's EID set itself, carried in place of EIDs
	// by a closure that has not crossed a wire: the codec flattens it at
	// encode time and the fold adopts it, so an in-process closure never
	// pays the flatten and the rebuild the wire form needs.
	eids map[ids.EID]scenario.Attr
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

// ShardWindower is the event-time accumulator: observations absorb into
// (window, cell) buckets, a close seals every bucket below a target in
// ascending (window, cell) order, and a snapshot images the open buckets. It
// holds no global state — watermark, partition and resolutions live in the
// processor that drives it — which is what makes a shard's death recoverable
// by pure replay. It is not safe for concurrent use; the caller serializes.
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

// absorb folds one valid observation into its (window, cell) bucket.
func (w *ShardWindower) absorb(o Observation) {
	k := bucketKey{Window: int(o.TS / w.p.WindowMS), Cell: o.Cell}
	b := w.buckets[k]
	if b == nil {
		b = newBucket()
		w.buckets[k] = b
	}
	b.absorb(o)
}

// openKeys returns the keys of the open buckets with window < limit in
// ascending (window, cell) order — the exact order the batch generator
// emits scenarios in, which is what makes a stream-built store identical to
// the batch store.
func (w *ShardWindower) openKeys(limit int) []bucketKey {
	var keys []bucketKey
	for k := range w.buckets {
		if k.Window < limit {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Window != keys[j].Window {
			return keys[i].Window < keys[j].Window
		}
		return keys[i].Cell < keys[j].Cell
	})
	return keys
}

// seal closes every bucket with window < target, in openKeys order. The
// closures share the buckets' EID sets and detections — a sealed bucket is
// never written again. Features are not extracted here: a shard does that
// before the closure goes on the wire (Step), the Engine leaves it to the
// filter.
func (w *ShardWindower) seal(target int) []ShardSealed {
	keys := w.openKeys(target)
	sealed := make([]ShardSealed, 0, len(keys))
	for _, k := range keys {
		b := w.buckets[k]
		sortDetections(b.dets)
		sealed = append(sealed, ShardSealed{Window: k.Window, Cell: k.Cell, eids: b.eids, Dets: b.dets})
		delete(w.buckets, k)
	}
	return sealed
}

// snapshot images every open bucket, deep-copied, in openKeys order.
func (w *ShardWindower) snapshot() []ShardBucket {
	keys := w.openKeys(math.MaxInt)
	snap := make([]ShardBucket, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, bucketToCheckpoint(k, w.buckets[k]))
	}
	return snap
}

// Step applies one journalled message and returns the emission it produces,
// if any. Observations absorb into their bucket (nil emission); close
// rounds seal every bucket below the target with features extracted
// shard-side; snapshot requests return the bucket image stamped with the
// journal position. Hostile input — an invalid observation or unknown kind —
// errors without panicking; the windower's state is unchanged by a failed
// Step.
func (w *ShardWindower) Step(m ShardMsg) (*ShardOut, error) {
	switch m.Kind {
	case ShardMsgObs:
		if err := m.Obs.Validate(); err != nil {
			return nil, err
		}
		w.absorb(m.Obs)
		return nil, nil
	case ShardMsgClose:
		sealed := w.seal(m.Target)
		for i := range sealed {
			if feats := extractSealed(w.xt, sealed[i].Dets, &w.xbuf); feats != nil {
				sealed[i].FeatDim, sealed[i].Feat = feats.Dim(), feats.Data()
			}
		}
		return &ShardOut{Kind: ShardOutRound, Round: m.Round, Target: m.Target, MaxTS: m.MaxTS, Sealed: sealed}, nil
	case ShardMsgSnap:
		return &ShardOut{Kind: ShardOutSnap, SnapPos: m.Pos, Snapshot: w.snapshot()}, nil
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

	// faults is the router's injected fault plan (tests only; nil otherwise)
	// and kills its counter of kill faults taken. RunShardInProcess applies
	// the plan, so only incarnations it runs can be stalled or killed.
	faults ShardFaultPlan
	kills  *atomic.Int64
}

// ShardRunner runs shard incarnations on behalf of a Router. RunShard is
// called on a fresh goroutine per incarnation and must not return until the
// run is stopped, superseded, or finished failing over (it may call
// run.Redispatch and then return). internal/shardrpc's Supervisor is the
// cross-process implementation.
type ShardRunner interface {
	RunShard(run ShardRun)
}

// RunShardInProcess drives a ShardRun on a local ShardWindower: what a
// Router without a Runner runs its shards on, the fallback a supervisor uses
// when no worker process can be spawned, and the reference implementation of
// the seam's contract. The lease is renewed from a ticker while idle — an
// empty queue must not read as death — and every renewEveryMsgs messages
// while busy.
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
			if run.faults != nil {
				f := run.faults.ShardFault(run.Shard, run.Incarnation, step)
				if f.Stall > 0 {
					t := time.NewTimer(f.Stall)
					select {
					case <-t.C:
					case <-run.Stop:
						t.Stop()
						return
					}
				}
				if f.Kill {
					run.kills.Add(1)
					return // silent death; the lease lapses
				}
			}
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

// extractSealed extracts a sealed closure's features on the shard — the
// visual-processing cost that dominates window closure, paid in parallel
// across shards instead of serially in the merge stage (which primes its
// filter cache with the result). The extractor is a pure function of the
// patch bytes, so shard-side extraction is bit-identical to the merge-side
// lazy path. On any failure it returns nil and the merge-side filter
// extracts lazily, surfacing the identical error at Match time.
func extractSealed(xt feature.Extractor, dets []scenario.Detection, buf *feature.ExtractBuf) *feature.Matrix {
	if len(dets) == 0 {
		return nil
	}
	m, err := feature.NewMatrix(xt.Dim, len(dets))
	if err != nil {
		return nil
	}
	for i := range dets {
		if err := xt.ExtractIntoBuf(dets[i].Patch, m.Row(i), buf); err != nil {
			return nil
		}
	}
	return m
}
