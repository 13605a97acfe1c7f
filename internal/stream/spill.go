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
// V-Scenario payloads live in an unlinked blob log, one spill record each
// (evict): the detections plus, when the filter had already extracted it,
// the feature matrix — a reload then never
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

// evict appends id's spill record to the log: the payload as a
// scenario.Record (no EIDs), then the extracted matrix's dimension and
// row-major values — 0 and none when the filter had not extracted it. The
// store entry must still be resident; the caller drops it only after evict
// succeeds, so a write failure leaves the scenario in memory.
func (p *windowPager) evict(id scenario.ID, v *scenario.VScenario, m *feature.Matrix) error {
	dim, feat := 0, []float64(nil)
	if m != nil {
		dim, feat = m.Dim(), m.Data()
	}
	p.enc = scenario.AppendRecord(p.enc[:0], &scenario.Record{Window: v.Window, Cell: v.Cell, Dets: v.Detections})
	p.enc = wire.AppendFloat64s(wire.AppendVarint(p.enc, int64(dim)), feat)
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

// load reads and decodes id's spill record: the payload, and its matrix
// adopted without a copy when one was spilled (nil otherwise). A matrix whose
// shape does not match the detections is an error, never indexed. ok is
// false when id was never evicted — the caller then falls back to its
// resident path.
func (p *windowPager) load(id scenario.ID) (v *scenario.VScenario, m *feature.Matrix, ok bool, err error) {
	p.mu.RLock()
	ref, ok := p.refs[id]
	p.mu.RUnlock()
	if !ok {
		return nil, nil, false, nil
	}
	data, err := p.log.ReadAt(ref)
	if err != nil {
		return nil, nil, true, err
	}
	var rec scenario.Record
	r := wire.NewReader(data)
	scenario.ReadRecord(r, &rec)
	dim, feat := r.Int(), r.Float64s()
	if err := r.Err(); err != nil {
		return nil, nil, true, fmt.Errorf("stream: decode spill record %d: %w", id, err)
	}
	if dim != 0 || len(feat) != 0 {
		if m, err = feature.MatrixOf(dim, feat); err == nil && m.Rows() != len(rec.Dets) {
			err = fmt.Errorf("%d feature rows for %d detections", m.Rows(), len(rec.Dets))
		}
		if err != nil {
			return nil, nil, true, fmt.Errorf("stream: spill record %d: %w", id, err)
		}
	}
	p.stats.AddReloads(1)
	return &scenario.VScenario{ID: id, Cell: rec.Cell, Window: rec.Window, Detections: rec.Dets}, m, true, nil
}

// LoadV implements scenario.VPager: page an evicted payload back in.
func (p *windowPager) LoadV(id scenario.ID) (*scenario.VScenario, error) {
	v, _, ok, err := p.load(id)
	if err == nil && !ok {
		err = fmt.Errorf("stream: no spill record for scenario %d", id)
	}
	return v, err
}

// LoadMatrix is the filter's MatrixSource: it returns the spilled feature
// matrix for id, or (nil, nil) when id was never evicted or was evicted
// before its features were extracted — the filter then extracts from the
// paged-in detections, which yields the identical matrix.
func (p *windowPager) LoadMatrix(id scenario.ID) (*feature.Matrix, error) {
	_, m, _, err := p.load(id)
	return m, err
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

// SpillStats snapshots the engine's out-of-core activity: bytes spilled,
// evictions and reloads of sealed windows. All-zero when MemBudget is unset.
func (e *Engine) SpillStats() spill.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spillStats.Snapshot()
}
