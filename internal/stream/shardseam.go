package stream

import (
	"errors"
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
// one through RunShardInProcess, a worker process hosts one behind Step, and
// a Router's Checkpoint runs one over each journal to image the open buckets.
// All of them therefore compute the same function by construction, and the
// shard-invariance battery pins remote ≡ in-process ≡ unsharded ≡ batch.
//
// The windower reads no pixel: it keeps V observations in arrival order
// beside their journal positions, and which of them are one detection, and in
// what order a scenario holds them, the fold decides (canonicalDets), on the
// side of the seam that owns the pixels. So the shard wire carries no patch
// in either direction, and a worker holds EIDs and positions only.
//
// internal/shardrpc builds on this seam: its supervisor implements
// ShardRunner by proxying ShardRun over net/rpc to a worker process that
// hosts a ShardWindower, and falls back to RunShardInProcess when no worker
// can be had.

// ShardParams is the windowing slice of a RouterConfig that a shard windower
// needs — the full Config carries process-local state (Clock, Metrics, target
// sets) that must not cross the wire.
type ShardParams struct {
	// WindowMS is the event-time window width.
	WindowMS int64
	// Dim and WorkFactor are validated and otherwise unused: extraction left
	// the shard (the merge stage's filter extracts what SS selects). They
	// stay because bench/perf/layers.go, frozen, builds a ShardParams with
	// them.
	Dim        int
	WorkFactor int
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
// produces and the fold consumes. Dets are the bucket's V observations in
// arrival order, repeats included — the fold orders and deduplicates them —
// and an empty Dets means the bucket sealed with no V side. Refs, parallel to
// Dets, are the journal positions (ShardMsg.Pos) of those observations. On
// the shard wire a closure is Window, Cell, EIDs and Refs only (codec.go): the
// router's journal holds every pixel and the shard never saw one, so the
// merge stage rebuilds Dets from Refs and trusts nothing else. EIDs is the
// EID set flattened to a sorted slice (the same canonical form checkpoints
// use, so equal closures encode to equal bytes). FeatDim and Feat belong to the type's other job, the spill record
// of an evicted sealed scenario (spill.go; EIDs and Refs empty): the
// extracted feature matrix as its row-major storage, FeatDim == 0 when the
// filter had not extracted it yet.
type ShardSealed struct {
	Window  int
	Cell    geo.CellID
	EIDs    []BucketEID
	Refs    []int64
	Dets    []scenario.Detection
	FeatDim int
	Feat    []float64

	// eids is the sealed bucket's EID set itself, carried in place of EIDs
	// by a closure that has not crossed a wire: the codec flattens it at
	// encode time and the fold adopts it, so an in-process closure never
	// pays the flatten and the rebuild the wire form needs.
	eids map[ids.EID]scenario.Attr
}

// matrix adopts a spill record's feature payload as a matrix of one row per
// detection (no copy), or returns nil when none was spilled. A payload whose
// shape does not match the detections is an error, never indexed.
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

// ShardOut is one shard emission: the sealed closures of one close round.
// Round, Target and MaxTS echo the close message.
type ShardOut struct {
	Round  int
	Target int
	MaxTS  int64
	Sealed []ShardSealed
}

// ShardWindower is the event-time accumulator: observations absorb into
// (window, cell) buckets, a close seals every bucket below a target in
// ascending (window, cell) order, and a snapshot images the open buckets. It
// holds no global state — watermark, partition and resolutions live in the
// processor that drives it — which is what makes a shard's death recoverable
// by pure replay. It is not safe for concurrent use; the caller serializes.
type ShardWindower struct {
	p        ShardParams
	buckets  map[bucketKey]*bucket
	openDets int64 // V observations in the open buckets, repeats included
}

// NewShardWindower builds a windower, fresh (nil) or holding the open buckets
// of a checkpoint image. There is one way in: an image bucket is absorbed
// observation by observation, in image order, like any other input.
func NewShardWindower(p ShardParams, initial []ShardBucket) (*ShardWindower, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	w := &ShardWindower{p: p, buckets: make(map[bucketKey]*bucket, len(initial))}
	for i := range initial {
		initial[i].observations(p.WindowMS, func(o Observation) { w.absorb(0, o) })
	}
	return w, nil
}

// absorb folds one valid observation, journalled at pos, into its (window,
// cell) bucket.
func (w *ShardWindower) absorb(pos int64, o Observation) {
	k := bucketKey{Window: int(o.TS / w.p.WindowMS), Cell: o.Cell}
	b := w.buckets[k]
	if b == nil {
		b = &bucket{eids: make(map[ids.EID]scenario.Attr)}
		w.buckets[k] = b
	}
	b.absorb(pos, o)
	if o.Kind == KindV {
		w.openDets++
	}
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
// closures share the buckets' EID sets, detections and journal positions, as
// they arrived — a sealed bucket is never written again.
func (w *ShardWindower) seal(target int) []ShardSealed {
	keys := w.openKeys(target)
	sealed := make([]ShardSealed, 0, len(keys))
	for _, k := range keys {
		b := w.buckets[k]
		sealed = append(sealed, ShardSealed{Window: k.Window, Cell: k.Cell, eids: b.eids, Dets: b.dets, Refs: b.refs})
		w.openDets -= int64(len(b.dets))
		delete(w.buckets, k)
	}
	return sealed
}

// snapshot images every open bucket (bucketToCheckpoint), in openKeys order.
func (w *ShardWindower) snapshot() []ShardBucket {
	keys := w.openKeys(math.MaxInt)
	snap := make([]ShardBucket, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, bucketToCheckpoint(k, w.buckets[k]))
	}
	return snap
}

// Step applies one journalled message and returns the emission it produces,
// if any. Observations absorb into their bucket under the message's journal
// position (nil emission); close rounds seal every bucket below the target.
// An observation is held to everything a windower reads of it — not its
// patch, which the router validated and kept. Hostile input — an invalid
// observation or unknown kind — errors without panicking; the windower's
// state is unchanged by a failed Step.
func (w *ShardWindower) Step(m ShardMsg) (*ShardOut, error) {
	switch m.Kind {
	case ShardMsgObs:
		if err := m.Obs.validateWindowed(); err != nil {
			return nil, err
		}
		w.absorb(m.Pos, m.Obs)
		return nil, nil
	case ShardMsgClose:
		return &ShardOut{Round: m.Round, Target: m.Target, MaxTS: m.MaxTS, Sealed: w.seal(m.Target)}, nil
	}
	return nil, fmt.Errorf("stream: unknown shard message kind %d", m.Kind)
}

// ErrShardFailed reports a shard whose windower refused a journalled
// message. It is sticky, like ErrBadShardReply: a windower is a pure function
// of the journal, so a replacement replaying the same messages would refuse
// the same one, and the stream fails instead of looping.
var ErrShardFailed = errors.New("stream: shard failed")

// ShardRun is one shard incarnation handed to a ShardRunner: the message
// stream — everything the incarnation will ever know, a replacement's begins
// with a replay of the journal — and the callbacks wiring the runner back into
// the router. In, Stop, Emit and Died are scoped to this incarnation: once the
// router stops it, Emit's deliveries are deduplicated away and Died is a no-op,
// so a stale runner can wind down at its leisure.
type ShardRun struct {
	// Shard and Incarnation identify the run.
	Shard       int
	Incarnation int
	// Params configures the windower.
	Params ShardParams
	// In carries the journalled message stream.
	In <-chan ShardMsg
	// Stop closes when the incarnation is superseded or the router closes.
	Stop <-chan struct{}
	// Emit delivers one emission to the merge stage. A false return means
	// the incarnation was stopped; the runner should return promptly.
	Emit func(ShardOut) bool
	// Died is how the runner says the incarnation stopped on its own — every
	// exit not caused by Stop reports here, exactly once. A nil refusal is a
	// death replaying the journal cures (a killed shard, a failed call to its
	// worker): the router hands the shard to a replacement. A non-nil refusal
	// is the windower rejecting a message: the router fails the stream with
	// ErrShardFailed wrapping it. Either way Died only records; it never
	// blocks and never takes the router's lock.
	Died func(refusal error)

	// faults is the router's injected fault plan (tests only; nil otherwise)
	// and kills its counter of kill faults taken. RunShardInProcess applies
	// the plan, so only incarnations it runs can be stalled or killed.
	faults ShardFaultPlan
	kills  *atomic.Int64
}

// ShardRunner runs shard incarnations on behalf of a Router. RunShard is
// called on a fresh goroutine per incarnation and must not return until the
// run is stopped or has reported through run.Died. internal/shardrpc's
// Supervisor is the cross-process implementation.
type ShardRunner interface {
	RunShard(run ShardRun)
}

// ShardFault is the injected fault for one (shard, incarnation, step):
// chaos tests kill or stall shard windowers mid-window through it.
type ShardFault struct {
	// Kill makes the shard's run die before processing the message; it
	// reports the death and the router redispatches its cell range.
	Kill bool
	// Stall delays processing by this much — a straggler shard.
	Stall time.Duration
}

// ShardFaultPlan decides shard faults from pure coordinates, mirroring
// cluster.FaultPlan: decisions depend only on (shard, incarnation, step),
// never on goroutine interleaving, so fault schedules are reproducible.
// chaos.NewShardInjector is the seeded implementation.
type ShardFaultPlan interface {
	ShardFault(shard, incarnation, step int) ShardFault
}

// RunShardInProcess drives a ShardRun on a local ShardWindower: what a
// Router without a Runner runs its shards on, the fallback a supervisor uses
// when no worker process can be spawned, and the reference implementation of
// the seam's contract. Its exits are Stop (a stall or an Emit included), a
// kill fault — Died(nil) — and a windower that will not take a message —
// Died with the error.
func RunShardInProcess(run ShardRun) {
	w, err := NewShardWindower(run.Params, nil)
	if err != nil {
		run.Died(err)
		return
	}
	for step := 1; ; step++ {
		var m ShardMsg
		select {
		case <-run.Stop:
			return
		case m = <-run.In:
		}
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
				run.Died(nil)
				return
			}
		}
		out, err := w.Step(m)
		if err != nil {
			run.Died(err)
			return
		}
		if out != nil && !run.Emit(*out) {
			return
		}
	}
}
