package stream

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// CheckpointVersion is the checkpoint format version this package writes.
// Version 2 flattened the E-Scenario EID set from a map into a sorted
// (EID, attr) slice: gob encodes maps in randomized iteration order, so the
// v1 format produced different bytes for equal states and broke the
// checkpoint → restore → re-checkpoint byte-identity property.
const CheckpointVersion = 2

// ErrBadCheckpoint reports a checkpoint that cannot be restored.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// checkpointScenario is one closed EV-Scenario pair, saved in store-ID order
// so restore re-adds them with identical IDs. The E side is flattened: an
// EScenario holds its EID set as a map, which gob would encode in randomized
// order, so the set is saved as a sorted (EID, attr) slice instead — every
// field reachable from checkpointFile must encode deterministically (the
// gobdet analyzer enforces this).
type checkpointScenario struct {
	Cell   geo.CellID
	Window int
	EIDs   []BucketEID
	V      scenario.VScenario
	HasV   bool
}

// BucketEID is one (EID, attr) entry of an open bucket, slice-encoded in
// sorted order for stable checkpoint bytes.
type BucketEID struct {
	EID  ids.EID
	Attr scenario.Attr
}

// ShardBucket is one open (window, cell) bucket.
type ShardBucket struct {
	Window int
	Cell   geo.CellID
	EIDs   []BucketEID
	Dets   []scenario.Detection
}

// checkpointFile is the complete gob-encoded stream state. The partition and
// the vfilter cache are deliberately absent: both are pure functions of the
// closed scenarios, so restore rebuilds them by replaying SplitBy in store-ID
// order — smaller checkpoints, and no risk of persisting internal state that
// drifts from the data (DESIGN.md §10).
type checkpointFile struct {
	Version int

	// Config guard: a checkpoint only restores into an engine windowing and
	// matching identically.
	WindowMS   int64
	LatenessMS int64
	Seed       int64
	Dim        int
	Targets    []ids.EID

	// Ingested is the number of observations consumed (accepted or dropped)
	// — the log offset a resumed replayer skips to.
	Ingested    int64
	LateDropped int64
	MaxTS       int64
	MinOpen     int
	Seq         int

	Scenarios   []checkpointScenario
	Buckets     []ShardBucket
	Resolutions []Resolution
	Accepted    []ids.VID
	Resolved    []ids.EID
}

// Checkpoint serializes the engine's full stream state: closed scenarios,
// open buckets, emitted resolutions, and counters. A consumer that persists
// the checkpoint together with the ingested-count offset can crash and
// resume without reprocessing the log from the start.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	cp, err := e.checkpointLocked()
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	return nil
}

// checkpointLocked builds the engine's checkpoint image. Evicted V payloads
// are paged back in transiently — the checkpoint always carries the full
// state — and a reload failure fails the checkpoint rather than silently
// persisting a scenario as detection-free. Callers hold e.mu.
func (e *Engine) checkpointLocked() (checkpointFile, error) {
	cp := checkpointFile{
		Version:     CheckpointVersion,
		WindowMS:    e.cfg.WindowMS,
		LatenessMS:  e.cfg.LatenessMS,
		Seed:        e.cfg.Seed,
		Dim:         e.cfg.Dim,
		Targets:     e.cfg.Targets,
		Ingested:    e.ingested,
		LateDropped: e.lateDropped,
		MaxTS:       e.maxTS,
		MinOpen:     e.minOpen,
		Seq:         e.seq,
		Resolutions: e.emitted,
		Accepted:    ids.SortedVIDKeys(e.accepted),
		Resolved:    ids.SortedEIDKeys(e.resolved),
	}
	for id := scenario.ID(0); int(id) < e.store.Len(); id++ {
		esc := e.store.E(id)
		cs := checkpointScenario{Cell: esc.Cell, Window: esc.Window}
		for _, eid := range ids.SortedEIDKeys(esc.EIDs) {
			cs.EIDs = append(cs.EIDs, BucketEID{EID: eid, Attr: esc.EIDs[eid]})
		}
		v, err := e.store.VChecked(id)
		if err != nil {
			return checkpointFile{}, fmt.Errorf("stream: checkpoint scenario %d: %w", id, err)
		}
		if v != nil {
			cs.V = *v
			cs.HasV = true
		}
		cp.Scenarios = append(cp.Scenarios, cs)
	}
	var keys []bucketKey
	for k := range e.buckets {
		keys = append(keys, k)
	}
	sortBucketKeys(keys)
	for _, k := range keys {
		cp.Buckets = append(cp.Buckets, bucketToCheckpoint(k, e.buckets[k]))
	}
	return cp, nil
}

// bucketToCheckpoint flattens one open bucket into its checkpoint form: the
// EID map becomes a sorted (EID, attr) slice and the detections are deep-
// copied, so the image stays valid while the live bucket keeps absorbing —
// the router's sub-checkpoint snapshots outlive the shard that emitted them.
func bucketToCheckpoint(k bucketKey, b *bucket) ShardBucket {
	cb := ShardBucket{
		Window: k.Window,
		Cell:   k.Cell,
		Dets:   append(make([]scenario.Detection, 0, len(b.dets)), b.dets...),
	}
	for _, eid := range ids.SortedEIDKeys(b.eids) {
		cb.EIDs = append(cb.EIDs, BucketEID{EID: eid, Attr: b.eids[eid]})
	}
	return cb
}

// bucketFromCheckpoint rebuilds an open bucket from its checkpoint form,
// deep-copying the detections so restored buckets never share backing arrays
// with the image they came from (a redispatched shard and its stale
// predecessor may both restore from the same sub-checkpoint).
func bucketFromCheckpoint(cb ShardBucket) *bucket {
	b := &bucket{
		eids:    make(map[ids.EID]scenario.Attr, len(cb.EIDs)),
		detSeen: make(map[string]bool, len(cb.Dets)),
	}
	for _, ea := range cb.EIDs {
		b.eids[ea.EID] = ea.Attr
	}
	b.dets = append(make([]scenario.Detection, 0, len(cb.Dets)), cb.Dets...)
	for i := range b.dets {
		b.keyBuf = appendDetKey(b.keyBuf[:0], b.dets[i].VID, b.dets[i].TruePerson, &b.dets[i].Patch)
		b.detSeen[string(b.keyBuf)] = true
	}
	return b
}

// Restore builds an Engine from cfg and resumes it from a checkpoint written
// by Checkpoint. The checkpoint's windowing and matching parameters must
// match cfg; runtime-only fields (Clock, Metrics, Mode, Workers) come from
// cfg alone.
func Restore(cfg Config, r io.Reader) (*Engine, error) {
	var cp checkpointFile
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrBadCheckpoint, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadCheckpoint, cp.Version, CheckpointVersion)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.guardCheckpoint(&cp); err != nil {
		return nil, err
	}
	if err := e.restoreScenarios(&cp); err != nil {
		return nil, err
	}
	for _, cb := range cp.Buckets {
		e.buckets[bucketKey{Window: cb.Window, Cell: cb.Cell}] = bucketFromCheckpoint(cb)
	}
	e.restoreCounters(&cp)
	e.mu.Lock()
	e.publishGauges()
	e.mu.Unlock()
	return e, nil
}

// guardCheckpoint rejects a checkpoint whose windowing or matching
// parameters disagree with the engine's config.
func (e *Engine) guardCheckpoint(cp *checkpointFile) error {
	switch {
	case cp.WindowMS != e.cfg.WindowMS:
		return fmt.Errorf("%w: window %d ms vs config %d ms", ErrBadCheckpoint, cp.WindowMS, e.cfg.WindowMS)
	case cp.LatenessMS != e.cfg.LatenessMS:
		return fmt.Errorf("%w: lateness %d ms vs config %d ms", ErrBadCheckpoint, cp.LatenessMS, e.cfg.LatenessMS)
	case cp.Seed != e.cfg.Seed:
		return fmt.Errorf("%w: seed %d vs config %d", ErrBadCheckpoint, cp.Seed, e.cfg.Seed)
	case cp.Dim != e.cfg.Dim:
		return fmt.Errorf("%w: dim %d vs config %d", ErrBadCheckpoint, cp.Dim, e.cfg.Dim)
	case !eidsEqual(cp.Targets, e.cfg.Targets):
		return fmt.Errorf("%w: target set differs from config", ErrBadCheckpoint)
	}
	return nil
}

// restoreScenarios re-adds the closed scenarios in ID order (the fresh store
// assigns the same IDs) and replays the split — the partition is a pure fold
// over them.
func (e *Engine) restoreScenarios(cp *checkpointFile) error {
	for i := range cp.Scenarios {
		cs := &cp.Scenarios[i]
		esc := &scenario.EScenario{
			Cell:   cs.Cell,
			Window: cs.Window,
			EIDs:   make(map[ids.EID]scenario.Attr, len(cs.EIDs)),
		}
		for _, ea := range cs.EIDs {
			esc.EIDs[ea.EID] = ea.Attr
		}
		var vsc *scenario.VScenario
		if cs.HasV {
			vsc = &cs.V
		}
		id, err := e.store.Add(esc, vsc)
		if err != nil {
			return fmt.Errorf("%w: scenario %d: %w", ErrBadCheckpoint, i, err)
		}
		if int(id) != i {
			return fmt.Errorf("%w: scenario %d re-added as %d", ErrBadCheckpoint, i, id)
		}
		// The same pruning path the live engine used: scenarios were closed
		// (and thus applied) in store-ID order, so the replay walks the
		// identical live-set evolution and rebuilds the partition, the
		// blocking state, and the prune counters deterministically.
		e.splitSealedLocked(esc)
		// Restored payloads count against the memory budget exactly like
		// freshly sealed ones, so a restored engine re-evicts down to budget
		// instead of holding the whole checkpoint resident.
		if err := e.noteSealedLocked(id, vsc); err != nil {
			return fmt.Errorf("%w: scenario %d: %w", ErrBadCheckpoint, i, err)
		}
	}
	return nil
}

// restoreCounters applies the checkpoint's counters, resolutions, and
// rule-out sets.
func (e *Engine) restoreCounters(cp *checkpointFile) {
	e.ingested = cp.Ingested
	e.lateDropped = cp.LateDropped
	e.maxTS = cp.MaxTS
	e.minOpen = cp.MinOpen
	e.seq = cp.Seq
	e.emitted = cp.Resolutions
	for _, eid := range cp.Resolved {
		e.resolved[eid] = true
	}
	for _, vid := range cp.Accepted {
		e.accept(vid)
	}
}

// eidsEqual reports element-wise equality of two sorted EID slices.
func eidsEqual(a, b []ids.EID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
