package stream

import (
	"fmt"
	"sync"

	"evmatching/internal/feature"
	"evmatching/internal/scenario"
	"evmatching/internal/spill"
	"evmatching/internal/wire"
)

// windowPager is the sealed-window half of the spill tier: evicted
// V-Scenario payloads live in an unlinked blob log, one ShardSealed record
// each (codec.go's encoding, EIDs empty): the detections plus, when the
// filter had already extracted it, the feature matrix — a reload then never
// re-pays extraction, and since the matrix is the very one the filter
// produced, the reloaded path is bit-identical to the resident one
// (DESIGN.md §14). Records are paged back in transiently at match,
// checkpoint, or finalize time. It implements scenario.VPager and backs the
// filter's MatrixSource. Evictions are serialized by the owning engine;
// reloads may be concurrent (the parallel finalize executor reads from many
// goroutines).
type windowPager struct {
	log   *spill.BlobLog
	stats *spill.Stats
	enc   []byte // evict's encode scratch (evictions are serialized)

	mu   sync.RWMutex
	refs map[scenario.ID]spill.BlobRef
}

// newWindowPager opens a pager over a fresh blob log in dir (empty = OS
// temp directory).
func newWindowPager(fsys spill.FS, dir string, stats *spill.Stats) (*windowPager, error) {
	log, err := spill.NewBlobLog(fsys, dir)
	if err != nil {
		return nil, err
	}
	return &windowPager{log: log, stats: stats, refs: make(map[scenario.ID]spill.BlobRef)}, nil
}

// Close releases the blob log's file handle.
func (p *windowPager) Close() error { return p.log.Close() }

// evict appends id's payload (and extracted matrix, when available) to the
// log. The store entry must still be resident; the caller drops it only
// after evict succeeds, so a write failure leaves the scenario in memory.
func (p *windowPager) evict(id scenario.ID, v *scenario.VScenario, m *feature.Matrix) error {
	rec := ShardSealed{Window: v.Window, Cell: v.Cell, Dets: v.Detections}
	if m != nil {
		rec.FeatDim, rec.Feat = m.Dim(), m.Data()
	}
	p.enc = appendShardSealed(p.enc[:0], &rec)
	ref, err := p.log.Append(p.enc)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.refs[id] = ref
	p.mu.Unlock()
	p.stats.AddBytesSpilled(ref.Len)
	return nil
}

// load reads and decodes id's spill record. The second result is false when
// id was never evicted — the caller then falls back to its resident path.
func (p *windowPager) load(id scenario.ID) (*ShardSealed, bool, error) {
	p.mu.RLock()
	ref, ok := p.refs[id]
	p.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	data, err := p.log.ReadAt(ref)
	if err != nil {
		return nil, true, err
	}
	var rec ShardSealed
	r := wire.NewReader(data)
	readShardSealed(r, &rec)
	if err := r.Err(); err != nil {
		return nil, true, fmt.Errorf("stream: decode spill record %d: %w", id, err)
	}
	p.stats.AddReloads(1)
	return &rec, true, nil
}

// LoadV implements scenario.VPager: page an evicted payload back in.
func (p *windowPager) LoadV(id scenario.ID) (*scenario.VScenario, error) {
	rec, ok, err := p.load(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("stream: no spill record for scenario %d", id)
	}
	return &scenario.VScenario{ID: id, Cell: rec.Cell, Window: rec.Window, Detections: rec.Dets}, nil
}

// LoadMatrix is the filter's MatrixSource: it returns the spilled feature
// matrix for id, or (nil, nil) when id was never evicted or was evicted
// before its features were extracted — the filter then extracts from the
// paged-in detections, which yields the identical matrix.
func (p *windowPager) LoadMatrix(id scenario.ID) (*feature.Matrix, error) {
	rec, ok, err := p.load(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	m, err := rec.matrix()
	if err != nil {
		return nil, fmt.Errorf("stream: corrupt spill record for scenario %d: %w", id, err)
	}
	return m, nil
}

// detOverheadBytes is the fixed per-detection charge on top of pixel bytes:
// an approximation of the Detection struct, VID label, and slice headers.
// Any constant works — charge and refund use the same function — it just
// keeps the budget honest for small-patch workloads.
const detOverheadBytes = 64

// vPayloadBytes is the budget-accounting cost of one resident V-Scenario
// payload. Pure function of the payload, so the eviction refund always
// equals the seal-time charge.
func vPayloadBytes(v *scenario.VScenario) int64 {
	n := int64(0)
	for i := range v.Detections {
		n += int64(len(v.Detections[i].Patch.Pix)) + detOverheadBytes
	}
	return n
}

// noteSealedLocked charges one freshly sealed (or restored) V payload
// against the memory budget and evicts oldest-sealed scenarios until the
// store is back under it. No-op without a budget or for E-only scenarios.
// Callers hold e.mu.
func (e *Engine) noteSealedLocked(id scenario.ID, vsc *scenario.VScenario) error {
	if e.spillBudget == nil || vsc == nil {
		return nil
	}
	e.spillBudget.Add(vPayloadBytes(vsc))
	e.spillQueue.Push(int64(id))
	return e.evictOverLocked()
}

// evictOverLocked pages out sealed V payloads in FIFO (seal) order until
// resident bytes fit the budget. The payload is dropped from the store only
// after the spill write succeeds, so a failed eviction degrades to an error
// with all state intact. Callers hold e.mu.
func (e *Engine) evictOverLocked() error {
	for e.spillBudget.Over() {
		pid, ok := e.spillQueue.Pop()
		if !ok {
			return nil // budget smaller than open state; nothing left to evict
		}
		id := scenario.ID(pid)
		v, err := e.store.VChecked(id)
		if err != nil {
			return fmt.Errorf("stream: evict scenario %d: %w", id, err)
		}
		if v == nil {
			continue
		}
		m, _ := e.filter.Drop(id)
		if err := e.pager.evict(id, v, m); err != nil {
			return fmt.Errorf("stream: evict scenario %d: %w", id, err)
		}
		if err := e.store.EvictV(id); err != nil {
			return fmt.Errorf("stream: evict scenario %d: %w", id, err)
		}
		e.spillBudget.Sub(vPayloadBytes(v))
		e.spillStats.AddEvictions(1)
	}
	return nil
}

// addSpillGauges folds one spill snapshot into a gauge map — the shared
// naming for the engine's and the router's /metricsz surfaces.
func addSpillGauges(g map[string]int64, s spill.Snapshot) {
	g["spill_bytes_spilled"] = s.BytesSpilled
	g["spill_runs_written"] = s.RunsWritten
	g["spill_runs_merged"] = s.RunsMerged
	g["spill_reloads"] = s.Reloads
	g["spill_evictions"] = s.Evictions
}

// SpillStats snapshots the engine's out-of-core activity: bytes spilled,
// evictions and reloads of sealed windows. All-zero when MemBudget is unset.
func (e *Engine) SpillStats() spill.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spillStats.Snapshot()
}
