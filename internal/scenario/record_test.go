package scenario

import (
	"errors"
	"reflect"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/wire"
)

func validRecord() Record {
	return Record{Window: 2, Cell: 7,
		EIDs: []EIDAttr{{EID: "e-1", Attr: AttrInclusive}, {EID: "e-2", Attr: AttrVague}},
		Dets: []Detection{{VID: "v-1", TruePerson: 1, Patch: feature.Patch{W: 2, H: 3, Pix: []byte{1, 2, 3, 4, 5, 6}}}},
	}
}

// TestRecordPairRoundTrip: a pair stored from its record survives
// Store.Record and the encoding, and a record without detections has no V
// side.
func TestRecordPairRoundTrip(t *testing.T) {
	want := validRecord()
	st := NewStore(nil)
	id, err := st.Add(want.Cell, want.Window, want.EIDs, want.V())
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Record(id, st.V(id))
	var got Record
	r := wire.NewReader(AppendRecord(nil, &rec))
	if ReadRecord(r, &got); r.Err() != nil || r.Len() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the record\n got %+v\nwant %+v", got, want)
	}
	got.Dets = nil
	if v := got.V(); v != nil {
		t.Error("a record without detections has a V side")
	}
}

// TestReadRecordRefusesHostileInput: every rule the decoder holds outside
// input to fails the Reader with wire.ErrCorrupt.
func TestReadRecordRefusesHostileInput(t *testing.T) {
	for name, spoil := range map[string]func(*Record){
		"attribute 0":     func(r *Record) { r.EIDs[0].Attr = 0 },
		"attribute 3":     func(r *Record) { r.EIDs[1].Attr = 3 },
		"EIDs descending": func(r *Record) { r.EIDs[0], r.EIDs[1] = r.EIDs[1], r.EIDs[0] },
		"EID repeated":    func(r *Record) { r.EIDs[1].EID = r.EIDs[0].EID },
		"-16x-40 patch":   func(r *Record) { r.Dets[0].Patch = feature.Patch{W: -16, H: -40, Pix: make([]byte, 640)} },
		"short patch":     func(r *Record) { r.Dets[0].Patch.Pix = r.Dets[0].Patch.Pix[:5] },
		"empty patch":     func(r *Record) { r.Dets[0].Patch = feature.Patch{} },
	} {
		rec := validRecord()
		spoil(&rec)
		var got Record
		r := wire.NewReader(AppendRecord(nil, &rec))
		if ReadRecord(r, &got); !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, r.Err())
		}
	}
}
