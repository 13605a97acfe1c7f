package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/scenario"
)

// TestLogRoundTrip pins the JSONL observation-log codec: the log
// WriteEventsLog writes for a dataset must decode to exactly the
// observations EventsFromDataset flattens it into.
func TestLogRoundTrip(t *testing.T) {
	ds := testDataset(t, true)
	hdr, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	if len(obs) == 0 {
		t.Fatal("no observations generated")
	}
	var buf bytes.Buffer
	if _, err := WriteEventsLog(&buf, ds, testWindowMS, 7); err != nil {
		t.Fatalf("WriteEventsLog: %v", err)
	}
	gotHdr, gotObs, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if gotHdr != hdr {
		t.Errorf("header round-trip: got %+v, want %+v", gotHdr, hdr)
	}
	if len(gotObs) != len(obs) {
		t.Fatalf("round-trip length %d, want %d", len(gotObs), len(obs))
	}
	for i := range obs {
		if !reflect.DeepEqual(gotObs[i], obs[i]) {
			t.Fatalf("observation %d round-trip:\ngot  %+v\nwant %+v", i, gotObs[i], obs[i])
		}
	}
}

// TestEventsFromDatasetDeterministic pins that the flattening is a pure
// function of (dataset, window, seed) and that every timestamp lands inside
// its scenario's window.
func TestEventsFromDatasetDeterministic(t *testing.T) {
	ds := testDataset(t, false)
	_, first, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	_, again, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("same (dataset, window, seed) produced different logs")
	}
	_, other, err := EventsFromDataset(ds, testWindowMS, 8)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	if reflect.DeepEqual(first, other) {
		t.Fatal("different seeds produced identical timestamp jitter")
	}
	last := int64(-1)
	for i, o := range first {
		if o.TS < last {
			t.Fatalf("observation %d out of order: ts %d after %d", i, o.TS, last)
		}
		last = o.TS
		if o.TS < 0 || o.TS >= int64(ds.Config.NumWindows)*testWindowMS {
			t.Fatalf("observation %d ts %d outside the dataset's %d windows", i, o.TS, ds.Config.NumWindows)
		}
	}
}

// TestObservationValidate covers the malformed-observation rejections.
func TestObservationValidate(t *testing.T) {
	patch := &feature.Patch{W: 2, H: 2, Pix: []byte{1, 2, 3, 4}}
	cases := []struct {
		name string
		obs  Observation
		ok   bool
	}{
		{"good-e", Observation{TS: 5, Kind: KindE, Cell: 1, EID: "aa", Attr: scenario.AttrInclusive}, true},
		{"good-v", Observation{TS: 5, Kind: KindV, Cell: 1, VID: "V00001", Patch: patch}, true},
		{"negative-ts", Observation{TS: -1, Kind: KindE, EID: "aa", Attr: scenario.AttrInclusive}, false},
		{"no-kind", Observation{TS: 5}, false},
		{"e-without-eid", Observation{TS: 5, Kind: KindE, Attr: scenario.AttrInclusive}, false},
		{"e-bad-attr", Observation{TS: 5, Kind: KindE, EID: "aa"}, false},
		{"v-without-vid", Observation{TS: 5, Kind: KindV, Patch: patch}, false},
		{"v-without-patch", Observation{TS: 5, Kind: KindV, VID: "V00001"}, false},
		{"v-patch-dims", Observation{TS: 5, Kind: KindV, VID: "V00001", Patch: &feature.Patch{W: 3, H: 2, Pix: []byte{1}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.obs.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Error("Validate accepted a malformed observation")
				} else if !errors.Is(err, ErrBadObservation) {
					t.Errorf("error %v is not ErrBadObservation", err)
				}
			}
		})
	}
}

// TestLogReaderErrors covers malformed logs: missing or wrong header, bad
// lines, and a log that ends after its header.
func TestLogReaderErrors(t *testing.T) {
	const hdr = `{"kind":"header","version":1,"windowMs":1000,"dim":64}` + "\n"
	for name, log := range map[string]string{
		"empty log":      "",
		"missing header": `{"ts":5,"kind":"E"}` + "\n",
		"future version": `{"kind":"header","version":99,"windowMs":1000,"dim":64}` + "\n",
		"garbage line":   hdr + "not json\n",
	} {
		if _, _, err := ReadLog(strings.NewReader(log)); !errors.Is(err, ErrBadLog) {
			t.Errorf("%s: err = %v, want ErrBadLog", name, err)
		}
	}
	if _, obs, err := ReadLog(strings.NewReader(hdr)); err != nil || len(obs) != 0 {
		t.Errorf("header-only log: %d observations, err = %v; want none and no error", len(obs), err)
	}
}

// TestWriteEventsLogByteIdentical pins the constant-memory writer against
// the materialized path: WriteEventsLog must produce byte-for-byte the JSON
// lines of the header and of EventsFromDataset(...)'s observations. The
// equivalence rests on per-window timestamp ranges being disjoint — a
// per-window stable sort concatenated in window order IS the global stable
// sort — so any drift here means the streaming writer changed the replay
// semantics, not just the encoding.
func TestWriteEventsLogByteIdentical(t *testing.T) {
	ds := testDataset(t, true)
	for _, seed := range []int64{0, 7, 42} {
		hdr, obs, err := EventsFromDataset(ds, testWindowMS, seed)
		if err != nil {
			t.Fatalf("EventsFromDataset: %v", err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if err := enc.Encode(headerLine{Kind: "header", Header: hdr}); err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			if err := enc.Encode(o); err != nil {
				t.Fatal(err)
			}
		}
		var got bytes.Buffer
		n, err := WriteEventsLog(&got, ds, testWindowMS, seed)
		if err != nil {
			t.Fatalf("WriteEventsLog: %v", err)
		}
		if n != len(obs) {
			t.Errorf("seed %d: WriteEventsLog reported %d observations, want %d", seed, n, len(obs))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: streaming log differs from materialized log (%d vs %d bytes)",
				seed, got.Len(), want.Len())
		}
	}
}

// TestWriteEventsLogRejectsBadInput covers the writer's validation edges.
func TestWriteEventsLogRejectsBadInput(t *testing.T) {
	if _, err := WriteEventsLog(io.Discard, nil, 1000, 1); err == nil {
		t.Error("want error for nil dataset")
	}
	ds := testDataset(t, false)
	if _, err := WriteEventsLog(io.Discard, ds, 0, 1); !errors.Is(err, ErrBadLog) {
		t.Errorf("window 0: err = %v, want ErrBadLog", err)
	}
}
