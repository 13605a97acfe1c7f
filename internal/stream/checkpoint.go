package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// CheckpointVersion is the checkpoint format version this package writes
// and the only one it reads. Version 4 replaced the gob encodings (v2, the
// engine image; v3, its sharded superset) with the binary record codec of
// codec.go; files written by earlier builds are rejected by their missing
// magic — the state is a pure function of the log, so re-replay it.
const CheckpointVersion = 4

// checkpointMagic opens every checkpoint file, followed by the version byte.
const checkpointMagic = "EVCK"

// maxCheckpointRecord caps one record of a checkpoint file (one scenario,
// one bucket, the header or the tail). wire.ReadRecord grows its buffer only
// as bytes arrive, so the cap bounds a legitimate record, not an allocation.
const maxCheckpointRecord = 1 << 30

// ErrBadCheckpoint reports a checkpoint that cannot be restored.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// BucketEID is one (EID, attr) entry of an open bucket, slice-encoded in
// sorted order for stable checkpoint bytes.
type BucketEID struct {
	EID  ids.EID
	Attr scenario.Attr
}

// sortedBucketEIDs flattens an EID set into its canonical image: (EID, attr)
// pairs in ascending EID order (nil for an empty set).
func sortedBucketEIDs(set map[ids.EID]scenario.Attr) []BucketEID {
	if len(set) == 0 {
		return nil
	}
	out := make([]BucketEID, 0, len(set))
	for _, eid := range ids.SortedEIDKeys(set) {
		out = append(out, BucketEID{EID: eid, Attr: set[eid]})
	}
	return out
}

// bucketEIDSet rebuilds the EID set of an image.
func bucketEIDSet(eids []BucketEID) map[ids.EID]scenario.Attr {
	set := make(map[ids.EID]scenario.Attr, len(eids))
	for _, ea := range eids {
		set[ea.EID] = ea.Attr
	}
	return set
}

// ShardBucket is one (window, cell) bucket image: an open bucket in a
// checkpoint's open section, or a closed EV-Scenario pair in its scenario
// section (no detections = no V side). The E side is flattened: a bucket
// holds its EID set as a map, so the image carries a sorted (EID, attr) slice
// instead.
type ShardBucket struct {
	Window int
	Cell   geo.CellID
	EIDs   []BucketEID
	Dets   []scenario.Detection
}

// observations yields the image of an open bucket back as the observations
// that rebuild it — its EIDs, then its detections, in image order, stamped
// with the window's first millisecond — the one way a windower or a router's
// journal takes an image in. The patches point into the image's detections.
func (cb *ShardBucket) observations(windowMS int64, yield func(Observation)) {
	ts := int64(cb.Window) * windowMS
	for _, ea := range cb.EIDs {
		yield(Observation{TS: ts, Kind: KindE, Cell: cb.Cell, EID: ea.EID, Attr: ea.Attr})
	}
	for i := range cb.Dets {
		d := &cb.Dets[i]
		yield(Observation{TS: ts, Kind: KindV, Cell: cb.Cell, VID: d.VID, Person: d.TruePerson, Patch: &d.Patch})
	}
}

// checkpointFile is the complete stream state, the one image both
// processors write and read. An engine image has Shards == 0; a router image
// records its shard count and lists its shards' open buckets shard by shard
// (re-checkpointing a restored router reproduces the bytes). Either
// processor restores either image — a router redistributes the buckets by
// ShardOf, an engine's windower absorbs them whole — so Shards only records
// who wrote the image. The partition and the vfilter cache are
// deliberately absent: both are pure functions of the closed scenarios, so
// restore rebuilds them by replaying SplitBy in store-ID order — smaller
// checkpoints, and no risk of persisting internal state that drifts from the
// data (DESIGN.md §10).
//
// On disk (write, readCheckpoint): the magic and version byte, then
// length-prefixed records — a header (every scalar below, Targets, and the
// two record counts), one record per scenario in store-ID order, one per
// open bucket, and a tail (Resolutions, Accepted, Resolved). Every value is
// a sorted slice under codec.go's fixed encoding, so equal states produce
// equal bytes by construction.
type checkpointFile struct {
	Shards int

	// Config guard: a checkpoint only restores into a processor windowing
	// and matching identically.
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

	Scenarios   []ShardBucket
	Buckets     []ShardBucket
	Resolutions []Resolution
	Accepted    []ids.VID
	Resolved    []ids.EID
}

// write streams the image to w record by record through one reused encode
// buffer, so no second copy of the state is ever held.
func (cp *checkpointFile) write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(checkpointMagic)
	bw.WriteByte(CheckpointVersion)
	var buf []byte
	record := func() {
		var n [binary.MaxVarintLen64]byte
		bw.Write(n[:binary.PutUvarint(n[:], uint64(len(buf)))])
		bw.Write(buf)
	}

	buf = wire.AppendVarint(buf, int64(cp.Shards))
	buf = wire.AppendVarint(buf, cp.WindowMS)
	buf = wire.AppendVarint(buf, cp.LatenessMS)
	buf = wire.AppendVarint(buf, cp.Seed)
	buf = wire.AppendVarint(buf, int64(cp.Dim))
	buf = appendIDs(buf, cp.Targets)
	buf = wire.AppendVarint(buf, cp.Ingested)
	buf = wire.AppendVarint(buf, cp.LateDropped)
	buf = wire.AppendVarint(buf, cp.MaxTS)
	buf = wire.AppendVarint(buf, int64(cp.MinOpen))
	buf = wire.AppendVarint(buf, int64(cp.Seq))
	buf = wire.AppendUvarint(buf, uint64(len(cp.Scenarios)))
	buf = wire.AppendUvarint(buf, uint64(len(cp.Buckets)))
	record()
	for _, section := range [][]ShardBucket{cp.Scenarios, cp.Buckets} {
		for i := range section {
			buf = appendShardBucket(buf[:0], &section[i])
			record()
		}
	}
	buf = appendSlice(buf[:0], cp.Resolutions, appendResolution)
	buf = appendIDs(buf, cp.Accepted)
	buf = appendIDs(buf, cp.Resolved)
	record()
	// bufio.Writer's error is sticky: Flush reports the first failed write.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint decodes an image written by write. Input is treated as
// hostile: a record count is never trusted for an allocation (slices grow
// as records actually arrive), and any malformed byte is ErrBadCheckpoint.
func readCheckpoint(rd io.Reader) (*checkpointFile, error) {
	br := bufio.NewReaderSize(rd, 64<<10)
	var head [len(checkpointMagic) + 1]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: read magic: %w", ErrBadCheckpoint, err)
	}
	if string(head[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: no %q magic — checkpoints written before format version %d (the gob-encoded v2/v3 files) are not readable; replay the log again",
			ErrBadCheckpoint, checkpointMagic, CheckpointVersion)
	}
	if v := head[len(checkpointMagic)]; v != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadCheckpoint, v, CheckpointVersion)
	}
	// record reads the next record into one reused buffer (decoded values
	// own their bytes), lets decode consume it, and insists it was consumed
	// exactly.
	var rec []byte
	record := func(what string, decode func(r *wire.Reader)) error {
		var err error
		if rec, err = wire.ReadRecord(br, rec, maxCheckpointRecord); err != nil {
			return fmt.Errorf("%w: read %s: %w", ErrBadCheckpoint, what, err)
		}
		r := wire.NewReader(rec)
		decode(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: decode %s: %w", ErrBadCheckpoint, what, err)
		}
		if r.Len() != 0 {
			return fmt.Errorf("%w: %s has %d trailing bytes", ErrBadCheckpoint, what, r.Len())
		}
		return nil
	}

	cp := &checkpointFile{}
	var counts [2]uint64
	if err := record("header", func(r *wire.Reader) {
		cp.Shards = r.Int()
		cp.WindowMS = r.Varint()
		cp.LatenessMS = r.Varint()
		cp.Seed = r.Varint()
		cp.Dim = r.Int()
		cp.Targets = readIDs[ids.EID](r)
		cp.Ingested = r.Varint()
		cp.LateDropped = r.Varint()
		cp.MaxTS = r.Varint()
		cp.MinOpen = r.Int()
		cp.Seq = r.Int()
		counts[0], counts[1] = r.Uvarint(), r.Uvarint()
	}); err != nil {
		return nil, err
	}
	if cp.Shards < 0 {
		return nil, fmt.Errorf("%w: %d shards", ErrBadCheckpoint, cp.Shards)
	}
	for i, section := range []*[]ShardBucket{&cp.Scenarios, &cp.Buckets} {
		what := [2]string{"scenario", "bucket"}[i]
		for n := uint64(0); n < counts[i]; n++ {
			var sb ShardBucket
			if err := record(what, func(r *wire.Reader) { readShardBucket(r, &sb) }); err != nil {
				return nil, err
			}
			*section = append(*section, sb)
		}
	}
	if err := record("tail", func(r *wire.Reader) {
		cp.Resolutions = readSlice(r, minResolutionBytes, readResolution)
		cp.Accepted = readIDs[ids.VID](r)
		cp.Resolved = readIDs[ids.EID](r)
	}); err != nil {
		return nil, err
	}
	return cp, nil
}

// Checkpoint serializes the engine's full stream state: closed scenarios,
// open buckets, emitted resolutions, and counters. A consumer that persists
// the checkpoint together with the ingested-count offset can crash and
// resume without reprocessing the log from the start.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	cp, err := e.checkpointLocked(&e.front, e.win.snapshot())
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return cp.write(w)
}

// checkpointLocked builds a checkpoint image: the fold's state — config
// guard, closed scenarios, resolutions, rule-out sets — from the engine, the
// header counters from the given frontier and the open section from the given
// buckets (the engine's own, or the router's and its shards'). Evicted V
// payloads are paged back in transiently — the checkpoint always carries the
// full state — and a reload failure fails the checkpoint rather than silently
// persisting a scenario as detection-free. Callers hold e.mu.
func (e *Engine) checkpointLocked(front *frontier, open []ShardBucket) (*checkpointFile, error) {
	cp := &checkpointFile{
		WindowMS:    e.cfg.WindowMS,
		LatenessMS:  e.cfg.LatenessMS,
		Seed:        e.cfg.Seed,
		Dim:         e.cfg.Dim,
		Targets:     e.cfg.Targets,
		Seq:         e.seq,
		Buckets:     open,
		Scenarios:   make([]ShardBucket, 0, e.store.Len()),
		Resolutions: e.emitted,
		Accepted:    ids.SortedVIDKeys(e.accepted),
		Resolved:    ids.SortedEIDKeys(e.resolved),
	}
	for id := scenario.ID(0); int(id) < e.store.Len(); id++ {
		esc := e.store.E(id)
		cs := ShardBucket{Cell: esc.Cell, Window: esc.Window, EIDs: sortedBucketEIDs(esc.EIDs)}
		v, err := e.store.VChecked(id)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint scenario %d: %w", id, err)
		}
		if v != nil {
			cs.Dets = v.Detections
		}
		cp.Scenarios = append(cp.Scenarios, cs)
	}
	front.record(cp)
	return cp, nil
}

// bucketToCheckpoint flattens one open bucket into its checkpoint form: the
// EID map becomes a sorted (EID, attr) slice and the detections are put in
// canonical form, so an image is sorted, free of repeats and the same for
// every arrival order — and redelivered batches cost it nothing. The image
// stays valid while the live bucket keeps absorbing: canonicalDets copies
// whatever it has to reorder, and a bucket only ever appends.
func bucketToCheckpoint(k bucketKey, b *bucket) ShardBucket {
	dets, _ := canonicalDets(b.dets)
	return ShardBucket{Window: k.Window, Cell: k.Cell, EIDs: sortedBucketEIDs(b.eids), Dets: dets}
}

// Restore builds an Engine from cfg and resumes it from a checkpoint — an
// engine's image or a router's, whose open buckets the engine's one windower
// takes whatever shard wrote them. The checkpoint's windowing and matching
// parameters must match cfg; runtime-only fields (Clock, Metrics,
// MemBudget, SpillDir) come from cfg alone.
func Restore(cfg Config, r io.Reader) (*Engine, error) {
	cp, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restoreMatchState(cp); err != nil {
		return nil, err
	}
	if err := e.resetWindower(cp.Buckets); err != nil {
		return nil, err
	}
	e.front.restore(cp)
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

// restoreMatchState resumes the fold from a checkpoint: after the config
// guard it re-adds the closed scenarios in ID order (the fresh store assigns
// the same IDs) and replays the split — the partition is a pure fold over
// them — then takes the resolutions and rule-out sets.
func (e *Engine) restoreMatchState(cp *checkpointFile) error {
	if err := e.guardCheckpoint(cp); err != nil {
		return err
	}
	for i := range cp.Scenarios {
		// The same path the live engine closed them through: scenarios were
		// applied in store-ID order, so the replay walks the identical
		// live-set evolution and rebuilds the partition, the blocking state
		// and the prune counters deterministically — and restored payloads
		// count against the memory budget exactly like freshly sealed ones,
		// so a restored engine re-evicts down to budget instead of holding
		// the whole checkpoint resident.
		cs := &cp.Scenarios[i]
		id, err := e.applySealedLocked(&ShardSealed{Window: cs.Window, Cell: cs.Cell, EIDs: cs.EIDs, Dets: cs.Dets})
		if err != nil {
			return fmt.Errorf("%w: scenario %d: %w", ErrBadCheckpoint, i, err)
		}
		if int(id) != i {
			return fmt.Errorf("%w: scenario %d re-added as %d", ErrBadCheckpoint, i, id)
		}
	}
	e.seq = cp.Seq
	e.emitted = cp.Resolutions
	for _, eid := range cp.Resolved {
		e.resolved[eid] = true
	}
	for _, vid := range cp.Accepted {
		e.accept(vid)
	}
	return nil
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

// Checkpoint serializes the router's full sharded state. It is a barrier on
// the fold alone: once every issued close round has folded, each shard's
// journal holds exactly the observations of its still-open windows (the merge
// stage compacts it at every fold), so the open section is those observations
// run through a local windower — no shard is asked anything, and the global
// section reflects exactly the closures the journals no longer contain. A
// shard that dies during the barrier is redispatched and its replacement
// re-emits the rounds still owed.
func (r *Router) Checkpoint(w io.Writer) error {
	r.mu.Lock()
	cp, err := r.checkpointLocked()
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return cp.write(w)
}

// checkpointLocked waits out the fold barrier and builds the image. Callers
// hold r.mu.
func (r *Router) checkpointLocked() (*checkpointFile, error) {
	if r.closed {
		return nil, ErrRouterClosed
	}
	if err := r.awaitFoldLocked(); err != nil {
		return nil, err
	}
	var open []ShardBucket
	for i := range r.slots {
		win, err := NewShardWindower(r.shardParams(), nil)
		if err != nil {
			return nil, err
		}
		for _, m := range r.slots[i].journal.retained() {
			if m.Kind == ShardMsgObs {
				win.absorb(m.Pos, m.Obs)
			}
		}
		open = append(open, win.snapshot()...)
	}
	// The merge stage supplies the global section; the frontier is the
	// router's and the open buckets are its journals'.
	r.merged.mu.Lock()
	defer r.merged.mu.Unlock()
	cp, err := r.merged.checkpointLocked(&r.front, open)
	if err != nil {
		return nil, err
	}
	cp.Shards = r.cfg.Shards
	return cp, nil
}

// RestoreRouter builds a Router from cfg and resumes it from a checkpoint —
// a router's sharded image or an engine's unsharded one. Open buckets are
// redistributed by ShardOf under cfg's shard count, so an image written
// under any shard count (or by an Engine) restores under any other.
func RestoreRouter(cfg RouterConfig, rd io.Reader) (*Router, error) {
	cp, err := readCheckpoint(rd)
	if err != nil {
		return nil, err
	}
	return newRouter(cfg, cp)
}
