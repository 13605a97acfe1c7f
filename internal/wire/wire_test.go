package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestRoundTrip encodes one of everything and reads it back in order.
func TestRoundTrip(t *testing.T) {
	floats := []float64{0, -0.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendVarint(b, -7)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "")
	b = AppendString(b, "8a:c7:06:97:9d:b9")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendFloat64(b, -1.25)
	b = AppendFloat64s(b, floats)
	b = AppendFloat64s(b, nil)
	b = append(b, 0xAB)

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if v := r.String(); v != "" {
		t.Errorf("String = %q", v)
	}
	if v := r.String(); v != "8a:c7:06:97:9d:b9" {
		t.Errorf("String = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) || cap(v) != 3 {
		t.Errorf("Bytes = %v (cap %d)", v, cap(v))
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if v := r.Float64(); v != -1.25 {
		t.Errorf("Float64 = %v", v)
	}
	if v := r.Float64s(); !reflect.DeepEqual(v, floats) {
		t.Errorf("Float64s = %v", v)
	}
	if v := r.Float64s(); v != nil {
		t.Errorf("empty Float64s = %v, want nil", v)
	}
	if v := r.Byte(); v != 0xAB {
		t.Errorf("Byte = %x", v)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("after a full read: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestReaderStickyError checks that the first failure sticks and later
// reads return zero values without replacing it.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x05, 'a', 'b'}) // a 5-byte string with 2 bytes present
	if s := r.String(); s != "" {
		t.Errorf("truncated String = %q", s)
	}
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", first)
	}
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Float64() != 0 || r.Bytes() != nil || r.Len() != 0 {
		t.Error("reads after a failure returned data")
	}
	if r.Err() != first {
		t.Errorf("a later read replaced the first error: %v", r.Err())
	}
}

// TestReaderRejectsHostileCounts is the allocation guard: a count or length
// the remaining input cannot hold fails before anything is sized by it.
func TestReaderRejectsHostileCounts(t *testing.T) {
	huge := AppendUvarint(nil, 1<<62)
	huge = append(huge, 1, 2, 3)
	cases := map[string]func(r *Reader){
		"Count":    func(r *Reader) { r.Count(1) },
		"Bytes":    func(r *Reader) { r.Bytes() },
		"String":   func(r *Reader) { _ = r.String() },
		"Float64s": func(r *Reader) { r.Float64s() },
	}
	for name, read := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(huge)
		read(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, r.Err())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: allocated %d bytes on a 2^62 count with 3 bytes left", name, grew)
		}
	}
	// Count divides by the element's minimum size.
	r := NewReader(append(AppendUvarint(nil, 3), make([]byte, 8)...))
	if n := r.Count(4); n != 0 || r.Err() == nil {
		t.Errorf("Count(4) of 3 over 8 bytes = %d, err %v; want a failure", n, r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, 2), make([]byte, 8)...))
	if n := r.Count(4); n != 2 || r.Err() != nil {
		t.Errorf("Count(4) of 2 over 8 bytes = %d, err %v", n, r.Err())
	}
	for _, bad := range [][]byte{{}, {0x80}, bytes.Repeat([]byte{0xff}, 11)} {
		r := NewReader(bad)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("Uvarint(%x): err = %v", bad, r.Err())
		}
	}
	r = NewReader([]byte{2})
	r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Bool(2): err = %v", r.Err())
	}
}

func record(payload []byte) []byte { return AppendBytes(nil, payload) }

// TestReadRecord covers the stream side: records back to back through one
// reused buffer, the cap, clean and unclean ends of input.
func TestReadRecord(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 3*recordChunk+5)
	in := append(append(record([]byte("one")), record(nil)...), record(big)...)
	br := bufio.NewReader(bytes.NewReader(in))
	var buf []byte
	for i, want := range [][]byte{[]byte("one"), {}, big} {
		got, err := ReadRecord(br, buf, 1<<30)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes, err %v; want %d bytes", i, len(got), err, len(want))
		}
		buf = got
	}
	if _, err := ReadRecord(br, buf, 1<<30); err != io.EOF {
		t.Errorf("end of input: err = %v, want io.EOF", err)
	}
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(record(big))), nil, 1024); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over the cap: err = %v, want ErrCorrupt", err)
	}
	for _, cut := range []int{1, 2, len(big) / 2} {
		trunc := record(big)[:cut]
		if cut == 1 {
			trunc = []byte{0x80} // inside the length prefix
		}
		if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(trunc)), nil, 1<<30); err != io.ErrUnexpectedEOF {
			t.Errorf("truncated at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadRecordBoundsAllocation: a prefix announcing the cap with almost
// nothing behind it allocates a chunk, not the cap.
func TestReadRecordBoundsAllocation(t *testing.T) {
	in := append(AppendUvarint(nil, 1<<30), 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRecord(bufio.NewReaderSize(bytes.NewReader(in), 16), nil, 1<<30)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*recordChunk {
		t.Errorf("allocated %d bytes for a 1 GiB prefix with 3 bytes behind it", grew)
	}
}

// FuzzReader drives every read method over arbitrary bytes: no panic, and
// no read ever hands back more than the input holds.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFloat64s(AppendString(AppendVarint(nil, -3), "abc"), []float64{1, 2}))
	f.Add(append(AppendUvarint(nil, 1<<62), 1, 2, 3))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewReader(in)
		for i := 0; r.Err() == nil && r.Len() > 0; i++ {
			switch i % 7 {
			case 0:
				r.Varint()
			case 1:
				if s := r.String(); len(s) > len(in) {
					t.Fatalf("String of %d bytes from %d", len(s), len(in))
				}
			case 2:
				if fs := r.Float64s(); 8*len(fs) > len(in) {
					t.Fatalf("%d floats from %d bytes", len(fs), len(in))
				}
			case 3:
				r.Bool()
			case 4:
				if n := r.Count(2); 2*n > len(in) {
					t.Fatalf("Count(2) = %d from %d bytes", n, len(in))
				}
			case 5:
				r.Int()
			case 6:
				r.Float64()
			}
		}
	})
}

// TestRecordFile: records written by FileWriter come back in order; a
// record the decoder leaves bytes of, another magic, another version and
// data after the last record are each refused.
func TestRecordFile(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "TEST", 3)
	for _, s := range []string{"one", "", "three"} {
		fw.Record(func(b []byte) []byte { return AppendString(b, s) })
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	if !bytes.HasPrefix(file, []byte("TEST\x03\x04\x03one")) {
		t.Fatalf("file starts %q", file[:min(len(file), 10)])
	}

	fr, err := NewFileReader(bytes.NewReader(file), "TEST", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one", "", "three"} {
		var got string
		if err := fr.Record("string", func(r *Reader) { got = r.String() }); err != nil || got != want {
			t.Fatalf("Record = %q, %v; want %q", got, err, want)
		}
	}
	if err := fr.End(); err != nil {
		t.Errorf("End: %v", err)
	}

	fr, _ = NewFileReader(bytes.NewReader(file), "TEST", 3)
	if err := fr.Record("byte", func(r *Reader) { r.Byte() }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a record with trailing bytes: err = %v, want ErrCorrupt", err)
	}
	if _, err := NewFileReader(bytes.NewReader(file), "TSET", 3); !errors.Is(err, ErrNoMagic) {
		t.Errorf("other magic: err = %v, want ErrNoMagic", err)
	}
	if _, err := NewFileReader(bytes.NewReader(file), "TEST", 4); err == nil {
		t.Error("other version accepted")
	}
	fr, _ = NewFileReader(bytes.NewReader(append(file, 0)), "TEST", 3)
	for range 3 {
		fr.Record("string", func(r *Reader) { _ = r.String() })
	}
	if err := fr.End(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("data after the last record: err = %v, want ErrCorrupt", err)
	}
}
