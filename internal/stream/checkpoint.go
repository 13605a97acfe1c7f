package stream

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// CheckpointVersion is the checkpoint format version this package writes
// and the only one it reads. Version 4 replaced the gob encodings (v2, the
// engine image; v3, its sharded superset) with the binary record codec of
// codec.go; version 5 dropped every field restore can derive, the writer's
// shard count and the matcher seed. Files of earlier versions are refused —
// the state is a pure function of the log, so re-replay it.
const CheckpointVersion = 5

// checkpointMagic opens every checkpoint file, followed by the version byte.
const checkpointMagic = "EVCK"

// ErrBadCheckpoint reports a checkpoint that cannot be restored.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// bucketObservations yields an open bucket's image back as the observations
// that rebuild it — EIDs, then detections, in image order, stamped with the
// window's first millisecond, patches pointing into the image — the one way
// a windower or a router's journal takes an image in.
func bucketObservations(cb *scenario.Record, windowMS int64, yield func(Observation)) {
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
// processors write and read: a state has one image, whichever processor and
// shard count hold it, since the open buckets are listed in (window, cell)
// order. Either processor restores it — a router redistributes the buckets
// by ShardOf, an engine's windower absorbs them whole. It holds only what
// restore cannot derive: the partition and the vfilter cache are pure
// functions of the closed scenarios, so restore rebuilds them by replaying
// the split in store-ID order, and the resolutions' numbers and what they
// resolve and rule out are functions of the resolutions (DESIGN.md §10).
//
// On disk (write, readCheckpoint) it is a wire record file: a header (every
// scalar below, Targets, the two record counts), one scenario.Record per
// scenario in store-ID order and per open bucket, and a tail (Resolutions,
// each without its Seq) — so equal states give equal bytes.
type checkpointFile struct {
	// Config guard: a checkpoint only restores into a processor windowing
	// and matching identically.
	WindowMS   int64
	LatenessMS int64
	Dim        int
	Targets    []ids.EID

	// Ingested is the number of observations consumed (accepted or dropped)
	// — the log offset a resumed replayer skips to.
	Ingested    int64
	LateDropped int64
	MaxTS       int64
	MinOpen     int

	Scenarios   []scenario.Record
	Buckets     []scenario.Record
	Resolutions []Resolution
}

// write streams the image to w record by record (wire.FileWriter), so no
// second copy of the state is ever held.
func (cp *checkpointFile) write(w io.Writer) error {
	fw := wire.NewFileWriter(w, checkpointMagic, CheckpointVersion)
	fw.Record(func(b []byte) []byte {
		b = wire.AppendVarint(b, cp.WindowMS)
		b = wire.AppendVarint(b, cp.LatenessMS)
		b = wire.AppendVarint(b, int64(cp.Dim))
		b = appendIDs(b, cp.Targets)
		b = wire.AppendVarint(b, cp.Ingested)
		b = wire.AppendVarint(b, cp.LateDropped)
		b = wire.AppendVarint(b, cp.MaxTS)
		b = wire.AppendVarint(b, int64(cp.MinOpen))
		b = wire.AppendUvarint(b, uint64(len(cp.Scenarios)))
		return wire.AppendUvarint(b, uint64(len(cp.Buckets)))
	})
	for _, section := range [][]scenario.Record{cp.Scenarios, cp.Buckets} {
		for i := range section {
			fw.Record(func(b []byte) []byte { return scenario.AppendRecord(b, &section[i]) })
		}
	}
	fw.Record(func(b []byte) []byte { return wire.AppendSlice(b, cp.Resolutions, appendResolution) })
	if err := fw.Flush(); err != nil {
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint decodes an image written by write, numbering the
// resolutions 1, 2, … in order. Input is treated as hostile: a record count
// is never trusted for an allocation (slices grow as records actually
// arrive), and any malformed byte is ErrBadCheckpoint.
func readCheckpoint(rd io.Reader) (_ *checkpointFile, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
		}
	}()
	fr, err := wire.NewFileReader(rd, checkpointMagic, CheckpointVersion)
	if err != nil {
		return nil, fmt.Errorf("%w — only format version %d is readable, not a v4 file nor a gob-encoded v2/v3 one; replay the log again",
			err, CheckpointVersion)
	}
	cp := &checkpointFile{}
	var counts [2]uint64
	if err := fr.Record("header", func(r *wire.Reader) {
		cp.WindowMS = r.Varint()
		cp.LatenessMS = r.Varint()
		cp.Dim = r.Int()
		cp.Targets = readIDs[ids.EID](r)
		cp.Ingested = r.Varint()
		cp.LateDropped = r.Varint()
		cp.MaxTS = r.Varint()
		cp.MinOpen = r.Int()
		counts[0], counts[1] = r.Uvarint(), r.Uvarint()
	}); err != nil {
		return nil, err
	}
	for i, section := range []*[]scenario.Record{&cp.Scenarios, &cp.Buckets} {
		what := [2]string{"scenario", "bucket"}[i]
		for n := uint64(0); n < counts[i]; n++ {
			var rec scenario.Record
			if err := fr.Record(what, func(r *wire.Reader) { scenario.ReadRecord(r, &rec) }); err != nil {
				return nil, err
			}
			*section = append(*section, rec)
		}
	}
	if err := fr.Record("tail", func(r *wire.Reader) {
		cp.Resolutions = wire.ReadSlice(r, minResolutionBytes, readResolution)
	}); err != nil {
		return nil, err
	}
	for i := range cp.Resolutions {
		cp.Resolutions[i].Seq = i + 1
	}
	return cp, fr.End()
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
// guard, closed scenarios, resolutions — from the engine, the
// header counters from the given frontier and the open section from the given
// buckets (the engine's own windower's, or one run over the router's
// journals), in (window, cell) order. Evicted V
// payloads are paged back in transiently — the checkpoint always carries the
// full state — and a reload failure fails the checkpoint rather than silently
// persisting a scenario as detection-free. Callers hold e.mu.
func (e *Engine) checkpointLocked(front *frontier, open []scenario.Record) (*checkpointFile, error) {
	cp := &checkpointFile{
		WindowMS:    e.cfg.WindowMS,
		LatenessMS:  e.cfg.LatenessMS,
		Dim:         e.cfg.Dim,
		Targets:     e.cfg.Targets,
		Buckets:     open,
		Scenarios:   make([]scenario.Record, 0, e.store.Len()),
		Resolutions: e.emitted,
	}
	for id := scenario.ID(0); int(id) < e.store.Len(); id++ {
		v, err := e.store.VChecked(id)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint scenario %d: %w", id, err)
		}
		cp.Scenarios = append(cp.Scenarios, e.store.Record(id, v))
	}
	front.record(cp)
	return cp, nil
}

// bucketToCheckpoint images one open bucket: its EIDs and its detections,
// each in canonical form, so an image is sorted, free of repeats and the same
// for every arrival order — and redelivered batches cost it nothing. The
// image stays valid while the live bucket keeps absorbing: canonicalEIDs and
// canonicalDets copy whatever they have to reorder, and a bucket only ever
// appends.
func bucketToCheckpoint(k bucketKey, b *bucket) scenario.Record {
	dets, _ := canonicalDets(b.dets)
	return scenario.Record{Window: k.Window, Cell: k.Cell, EIDs: canonicalEIDs(b.eids), Dets: dets}
}

// answered returns what a run of resolutions decided: the EIDs resolved and
// the VIDs ruled out — the non-empty VIDs of the acceptable answers — each
// sorted and once.
func answered(rs []Resolution) ([]ids.EID, []ids.VID) {
	resolved := make([]ids.EID, 0, len(rs))
	var accepted []ids.VID
	for i := range rs {
		resolved = append(resolved, rs[i].EID)
		if rs[i].Acceptable && rs[i].VID != ids.NoVID {
			accepted = append(accepted, rs[i].VID)
		}
	}
	slices.Sort(resolved)
	slices.Sort(accepted)
	return slices.Compact(resolved), slices.Compact(accepted)
}

// Restore builds an Engine from cfg and resumes it from a checkpoint, which
// an Engine or a Router of any shard count may have written. The checkpoint's windowing and matching
// parameters must match cfg; runtime-only fields (Clock, MemBudget,
// SpillDir) come from cfg alone.
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
	return e, nil
}

// guardCheckpoint rejects a checkpoint whose windowing or matching
// parameters disagree with the engine's config, or whose resolutions — whose
// resolved EIDs (answered) are given — answer an EID twice or one that is no
// target.
func (e *Engine) guardCheckpoint(cp *checkpointFile, resolved []ids.EID) error {
	switch {
	case cp.WindowMS != e.cfg.WindowMS:
		return fmt.Errorf("%w: window %d ms vs config %d ms", ErrBadCheckpoint, cp.WindowMS, e.cfg.WindowMS)
	case cp.LatenessMS != e.cfg.LatenessMS:
		return fmt.Errorf("%w: lateness %d ms vs config %d ms", ErrBadCheckpoint, cp.LatenessMS, e.cfg.LatenessMS)
	case cp.Dim != e.cfg.Dim:
		return fmt.Errorf("%w: dim %d vs config %d", ErrBadCheckpoint, cp.Dim, e.cfg.Dim)
	case !slices.Equal(cp.Targets, e.cfg.Targets):
		return fmt.Errorf("%w: target set differs from config", ErrBadCheckpoint)
	case len(resolved) != len(cp.Resolutions):
		return fmt.Errorf("%w: an EID resolved twice", ErrBadCheckpoint)
	}
	for _, eid := range resolved {
		if _, ok := slices.BinarySearch(e.part.Targets(), eid); !ok {
			return fmt.Errorf("%w: a resolution of %q, no target", ErrBadCheckpoint, eid)
		}
	}
	return nil
}

// restoreMatchState resumes the fold from a checkpoint: after the guard it
// re-adds the closed scenarios in ID order (the fresh store assigns the same
// IDs) and replays the split — the partition is a pure fold over them — then
// takes the resolutions and derives from them what they resolved and ruled
// out.
func (e *Engine) restoreMatchState(cp *checkpointFile) error {
	resolved, accepted := answered(cp.Resolutions)
	if err := e.guardCheckpoint(cp, resolved); err != nil {
		return err
	}
	for i := range cp.Scenarios {
		// The same path the live engine closed them through: scenarios were
		// applied in store-ID order, so the replay walks the identical
		// live-set evolution and rebuilds the partition, its live set and
		// the prune counters deterministically — and restored payloads
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
	e.emitted = cp.Resolutions
	// The replay re-resolved every target the partition had resolved; those
	// the checkpoint already answered are not pending.
	e.pending = slices.DeleteFunc(e.pending, func(i int) bool {
		_, done := slices.BinarySearch(resolved, e.part.Targets()[i])
		return done
	})
	for _, vid := range accepted {
		e.exclusion.Add(vid)
	}
	return nil
}

// Checkpoint serializes the router's full sharded state. It is a barrier on
// the fold alone: once every issued close round has folded, each shard's
// journal holds exactly the observations of its still-open windows (the merge
// stage compacts it at every fold), so the open section is those observations
// run through one local windower — no shard is asked anything, the buckets
// come out in the engine's order, and the global section reflects exactly
// the closures the journals no longer contain. A shard that dies during the
// barrier is redispatched and its replacement re-emits the rounds still owed.
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
	win, err := NewShardWindower(r.shardParams(), nil)
	if err != nil {
		return nil, err
	}
	for i := range r.slots {
		for _, m := range r.slots[i].journal.retained() {
			if m.Kind == ShardMsgObs {
				win.absorb(m.Pos, m.Obs)
			}
		}
	}
	// The merge stage supplies the global section; the frontier is the
	// router's and the open buckets are its journals'.
	r.merged.mu.Lock()
	defer r.merged.mu.Unlock()
	return r.merged.checkpointLocked(&r.front, win.snapshot())
}

// RestoreRouter builds a Router from cfg and resumes it from a checkpoint,
// which an Engine or a Router of any shard count may have written. Open
// buckets are redistributed by ShardOf under cfg's shard count.
func RestoreRouter(cfg RouterConfig, rd io.Reader) (*Router, error) {
	cp, err := readCheckpoint(rd)
	if err != nil {
		return nil, err
	}
	return newRouter(cfg, cp)
}
