package scenario

import (
	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/wire"
)

// Record is one EV-Scenario pair as bytes carry it — a checkpoint's scenario
// or open bucket, a spill record's payload, a world file's scenario — with
// its EID set as (EID, attr) pairs in ascending EID order, so equal pairs
// encode to equal bytes, and no V side when it has no detections. ReadRecord
// refuses an attribute neither inclusive nor vague, EIDs not strictly
// ascending and a patch failing Validate, as it refuses truncation.
type Record struct {
	Window int
	Cell   geo.CellID
	EIDs   []EIDAttr
	Dets   []Detection
}

// EIDAttr is one (EID, attribute) entry of a Record.
type EIDAttr struct {
	EID  ids.EID
	Attr Attr
}

// Record is the record of stored pair id, v being its V side as the caller
// fetched or paged it in; the record shares v's detections.
func (st *Store) Record(id ID, v *VScenario) Record {
	rec := Record{Window: st.Window(id), Cell: st.Cell(id)}
	if n := len(st.View(id).Ords); n > 0 {
		rec.EIDs = st.AppendEIDAttrs(make([]EIDAttr, 0, n), id)
	}
	if v != nil {
		rec.Dets = v.Detections
	}
	return rec
}

// V is the V side of the pair a record describes, sharing its detections,
// or nil when it has none.
func (rec *Record) V() *VScenario {
	if len(rec.Dets) == 0 {
		return nil
	}
	return &VScenario{Cell: rec.Cell, Window: rec.Window, Detections: rec.Dets}
}

// AppendRecord appends rec's encoding to b.
func AppendRecord(b []byte, rec *Record) []byte {
	b = wire.AppendVarint(b, int64(rec.Window))
	b = wire.AppendVarint(b, int64(rec.Cell))
	b = AppendEIDAttrs(b, rec.EIDs)
	return wire.AppendSlice(b, rec.Dets, func(b []byte, d *Detection) []byte {
		b = wire.AppendString(b, string(d.VID))
		b = wire.AppendVarint(b, int64(d.Patch.W))
		b = wire.AppendVarint(b, int64(d.Patch.H))
		b = wire.AppendBytes(b, d.Patch.Pix)
		return wire.AppendVarint(b, int64(d.TruePerson))
	})
}

// ReadRecord decodes a record written by AppendRecord. Nothing decoded
// aliases r's input: the pixels of all detections move into one arena of
// exactly their total size, which the input already held.
func ReadRecord(r *wire.Reader, rec *Record) {
	rec.Window = r.Int()
	rec.Cell = geo.CellID(r.Int())
	rec.EIDs = ReadEIDAttrs(r)
	rec.Dets = wire.ReadSlice(r, 5, func(r *wire.Reader, d *Detection) { // 5: empty VID, w, h, pix, person
		d.VID = ids.VID(r.String())
		d.Patch = feature.Patch{W: r.Int(), H: r.Int(), Pix: r.Bytes()} // aliases r until moved below
		d.TruePerson = r.Int()
		if err := d.Patch.Validate(); err != nil {
			r.Fail(err.Error())
		}
	})
	total := 0
	for i := range rec.Dets {
		total += len(rec.Dets[i].Patch.Pix)
	}
	arena := make([]byte, 0, total)
	for i := range rec.Dets {
		p := &rec.Dets[i].Patch
		arena = append(arena, p.Pix...)
		p.Pix = arena[len(arena)-len(p.Pix) : len(arena) : len(arena)]
	}
}

// AppendEIDAttrs appends a record's EID list alone, for the shard wire's
// closures, which carry no detections.
func AppendEIDAttrs(b []byte, eids []EIDAttr) []byte {
	return wire.AppendSlice(b, eids, func(b []byte, e *EIDAttr) []byte {
		return append(wire.AppendString(b, string(e.EID)), byte(e.Attr))
	})
}

// ReadEIDAttrs decodes a list written by AppendEIDAttrs, by ReadRecord's rules.
func ReadEIDAttrs(r *wire.Reader) []EIDAttr {
	eids := wire.ReadSlice(r, 2, func(r *wire.Reader, e *EIDAttr) { // 2: empty EID, attr
		e.EID, e.Attr = ids.EID(r.String()), Attr(r.Byte())
		if e.Attr != AttrInclusive && e.Attr != AttrVague {
			r.Fail("attribute neither inclusive nor vague")
		}
	})
	for i := 1; i < len(eids); i++ {
		if eids[i-1].EID >= eids[i].EID {
			r.Fail("EIDs not strictly ascending")
		}
	}
	return eids
}
