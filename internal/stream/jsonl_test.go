package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/scenario"
)

// canonicalLines returns an E and a V line as json.Marshal writes them —
// the layout of every line WriteEventsLog and bench traffic carry.
func canonicalLines(tb testing.TB) (eLine, vLine []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	vec := make(feature.Vector, 64)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	vec.Normalize()
	patch := feature.EncodePatch(vec, 1, rng)
	var err error
	if eLine, err = json.Marshal(Observation{TS: 123_456, Kind: KindE, Cell: 42, EID: "E000123", Attr: scenario.AttrInclusive}); err != nil {
		tb.Fatal(err)
	}
	if vLine, err = json.Marshal(Observation{TS: 123_789, Kind: KindV, Cell: 42, VID: "V004567", Person: 17, Patch: &patch}); err != nil {
		tb.Fatal(err)
	}
	return eLine, vLine
}

// decodeSeed is a line and whether the one-scan reader takes it;
// json.Unmarshal decodes all the others.
type decodeSeed struct {
	name, line string
	canonical  bool
}

// decodeSeeds are lines on each side of the fast path's border.
var decodeSeeds = []decodeSeed{
	{"e-minimal", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}`, true},
	{"v-minimal", `{"ts":1,"kind":"V","cell":0,"vid":"v","person":3,"patch":{"w":1,"h":1,"pix":"AQ=="}}`, true},
	{"negative-zero", `{"ts":-0,"kind":"E","cell":-0,"eid":"e","attr":1,"person":-0}`, true},
	{"negative", `{"ts":-5,"kind":"E","cell":-44,"eid":"e","attr":1,"person":-1}`, true},
	{"ts-18-digits", `{"ts":999999999999999999,"kind":"E","cell":0,"eid":"e","attr":2,"person":0}`, true},
	{"attr-255", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":255,"person":0}`, true},
	{"attr-0", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":0,"person":0}`, true},
	{"no-optional-fields", `{"ts":1,"kind":"V","cell":0,"person":0}`, true},
	{"empty-strings", `{"ts":1,"kind":"E","cell":0,"eid":"","vid":"","person":0}`, true},
	{"pix-empty", `{"ts":1,"kind":"V","cell":0,"vid":"v","person":0,"patch":{"w":0,"h":0,"pix":""}}`, true},
	{"hostile-dims", `{"ts":1,"kind":"V","cell":0,"vid":"v","person":0,"patch":{"w":-16,"h":-40,"pix":"AAAA"}}`, true},
	{"pix-null", `{"ts":1,"kind":"V","cell":0,"vid":"v","person":0,"patch":{"w":1,"h":1,"pix":null}}`, false},
	{"patch-null", `{"ts":1,"kind":"V","cell":0,"vid":"v","person":0,"patch":null}`, false},
	{"escape-b", `{"ts":1,"kind":"E","cell":0,"eid":"\u0062","attr":1,"person":0}`, false},
	{"escape-lt", `{"ts":1,"kind":"E","cell":0,"eid":"a\u003cb","attr":1,"person":0}`, false},
	{"ts-19-digits", `{"ts":1234567890123456789,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"ts-max-int64", `{"ts":9223372036854775807,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"leading-zero", `{"ts":01,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"fraction", `{"ts":1.5,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"attr-256", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":256,"person":0}`, false},
	{"attr-negative-zero", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":-0,"person":0}`, false},
	{"upper-key", `{"TS":1,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"duplicate-key", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":1,"person":0,"person":1}`, false},
	{"reordered-keys", `{"kind":"E","ts":1,"cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"unknown-kind", `{"ts":1,"kind":"X","cell":0,"person":0}`, false},
	{"numeric-kind", `{"ts":1,"kind":1,"cell":0,"eid":"e","attr":1,"person":0}`, false},
	{"trailing-cr", "{\"ts\":1,\"kind\":\"E\",\"cell\":0,\"eid\":\"e\",\"attr\":1,\"person\":0}\r", false},
	{"trailing-space", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":1,"person":0} `, false},
	{"trailing-garbage", `{"ts":1,"kind":"E","cell":0,"eid":"e","attr":1,"person":0}x`, false},
	{"bad-padding", `{"ts":1,"kind":"V","cell":0,"vid":"v","person":0,"patch":{"w":1,"h":1,"pix":"AQ="}}`, false},
	{"control-in-pix", "{\"ts\":1,\"kind\":\"V\",\"cell\":0,\"vid\":\"v\",\"person\":0,\"patch\":{\"w\":1,\"h\":1,\"pix\":\"A\x01Q==\"}}", false},
	{"header", `{"kind":"header","version":1,"windowMs":1000,"dim":64}`, false},
	{"not-json", `not json at all`, false},
	{"binary", "\x00\xff", false},
	{"empty", ``, false},
}

// requireDecodeEquivalent fails unless DecodeObservation(line) is exactly
// json.Unmarshal(line, &o): the same error text, or deeply equal values that
// share no byte with line.
func requireDecodeEquivalent(t *testing.T, line []byte) {
	t.Helper()
	var want Observation
	wantErr := json.Unmarshal(line, &want)
	buf := bytes.Clone(line)
	got, gotErr := DecodeObservation(buf)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("DecodeObservation(%q) error = %v, json.Unmarshal error = %v", line, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for i := range buf {
		buf[i] = '#'
	}
	// DeepEqual tells a nil slice from an empty one.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeObservation(%q) =\n%#v\njson.Unmarshal =\n%#v", line, got, want)
	}
}

// TestDecodeObservationSeeds pins which side of the fast path's border each
// seed falls on, and that both sides decode as json.Unmarshal does.
func TestDecodeObservationSeeds(t *testing.T) {
	eLine, vLine := canonicalLines(t)
	seeds := append([]decodeSeed{{"e-marshalled", string(eLine), true}, {"v-marshalled", string(vLine), true}}, decodeSeeds...)
	for _, c := range seeds {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := decodeCanonical([]byte(c.line)); ok != c.canonical {
				t.Errorf("fast path taken = %v, want %v", ok, c.canonical)
			}
			requireDecodeEquivalent(t, []byte(c.line))
		})
	}
}

// FuzzDecodeObservation holds DecodeObservation to its contract on every
// input: exactly json.Unmarshal's error text, or its value.
func FuzzDecodeObservation(f *testing.F) {
	eLine, vLine := canonicalLines(f)
	f.Add(eLine)
	f.Add(vLine)
	for _, c := range decodeSeeds {
		f.Add([]byte(c.line))
	}
	// FuzzRouterObservation's hostile lines.
	for _, line := range []string{
		`{"ts":-5,"kind":1,"cell":2,"eid":"e1","attr":1}`,
		`{"ts":10,"kind":1,"cell":-44,"eid":"e1","attr":1}`,
		`{"ts":10,"kind":2,"cell":9007199254740993,"vid":"v1","patch":{"w":-3,"h":-7,"pix":"AAAA"}}`,
		`{"kind":"header","version":1}`,
		`{"ts":9223372036854775807,"kind":1,"cell":0,"eid":"e3","attr":2}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		requireDecodeEquivalent(t, line)
	})
}

// TestCanonicalLayoutCoversTheLogs pins that the fast path is the path
// today's traffic takes: every observation line WriteEventsLog writes for
// the ideal and the practical golden world has the canonical layout.
func TestCanonicalLayoutCoversTheLogs(t *testing.T) {
	for _, practical := range []bool{false, true} {
		ds := testDataset(t, practical)
		var buf bytes.Buffer
		n, err := WriteEventsLog(&buf, ds, testWindowMS, 7)
		if err != nil {
			t.Fatalf("WriteEventsLog: %v", err)
		}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(nil, 1<<20)
		sc.Scan() // the header
		lines := 0
		for sc.Scan() {
			lines++
			if _, ok := decodeCanonical(sc.Bytes()); !ok {
				t.Fatalf("practical=%v: line %d misses the fast path: %s", practical, lines+1, sc.Bytes())
			}
		}
		if lines != n || n == 0 {
			t.Fatalf("practical=%v: scanned %d observation lines, WriteEventsLog wrote %d", practical, lines, n)
		}
	}
}

// BenchmarkDecodeObservation prices one E and one V line (a 16×40 patch)
// through DecodeObservation and through the json.Unmarshal it stands in for.
func BenchmarkDecodeObservation(b *testing.B) {
	eLine, vLine := canonicalLines(b)
	for _, c := range []struct {
		name string
		line []byte
	}{{"E", eLine}, {"V", vLine}} {
		b.Run(c.name, func(b *testing.B) {
			b.Run("DecodeObservation", func(b *testing.B) {
				b.SetBytes(int64(len(c.line)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := DecodeObservation(c.line); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Unmarshal", func(b *testing.B) {
				b.SetBytes(int64(len(c.line)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var o Observation
					if err := json.Unmarshal(c.line, &o); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
