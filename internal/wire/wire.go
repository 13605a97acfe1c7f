// Package wire is the byte-level vocabulary of the repository's binary
// record format: append-style encoders, a bounds-checked Reader and the
// record-file framing (file.go). Shard rpc frames, checkpoints, spill records
// and world files are all built from these primitives, so a value has exactly
// one encoding wherever it travels (DESIGN.md §15).
//
// Encodings are fixed — unsigned and zig-zag varints, length-prefixed
// strings and byte slices, float64 blocks as a count followed by
// little-endian IEEE-754 words — so equal values always produce equal bytes.
//
// The Reader treats its input as hostile: every length and count is checked
// against the bytes that remain before anything is allocated, and the first
// failure sticks, so malformed input costs an error, never a panic or an
// allocation larger than a small multiple of the input.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrCorrupt reports input that is not a well-formed encoding: truncated, or
// carrying a length or count the remaining bytes cannot satisfy.
var ErrCorrupt = errors.New("wire: corrupt input")

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p as a uvarint length followed by its bytes.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendFloat64 appends v as one little-endian IEEE-754 word.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloat64s appends fs as a uvarint count followed by one contiguous
// block of little-endian IEEE-754 words.
func AppendFloat64s(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	n := len(b)
	b = slices.Grow(b, 8*len(fs))[:n+8*len(fs)]
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[n+8*i:], math.Float64bits(f))
	}
	return b
}

// Reader decodes the encodings above from a byte slice. The first failure is
// sticky: every later read returns a zero value, and Err reports the failure,
// so a decoder reads a whole record and checks once.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b. The Reader never writes to b; Bytes
// results alias it, everything else is copied out.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes (0 after a failure).
func (r *Reader) Len() int { return len(r.buf) }

// Fail records the Reader's failure unless one is already recorded, and drops
// the input so every later read fails fast. Decoders call it for bytes that
// parse but break a rule of their type, so such input fails like truncation.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
		r.buf = nil
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("truncated or overlong uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zig-zag varint that must fit the platform int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail("integer overflows int")
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) < 1 {
		r.Fail("truncated byte")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail("boolean byte not 0 or 1")
	return false
}

// Count reads a uvarint element count and validates it against the bytes
// that remain: each element is known to occupy at least minBytes (>= 1), so
// a count the remaining input cannot hold fails here — before the caller
// sizes a slice by it.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/minBytes) {
		r.Fail("count exceeds remaining input")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice. The result aliases the Reader's
// input (capacity clipped to its length); nil for an empty slice.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// String reads a length-prefixed string. The result owns its bytes.
func (r *Reader) String() string { return string(r.Bytes()) }

// Float64 reads one little-endian IEEE-754 word.
func (r *Reader) Float64() float64 {
	if len(r.buf) < 8 {
		r.Fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// AppendSlice appends s as a uvarint count followed by each element as enc
// appends it.
func AppendSlice[T any](b []byte, s []T, enc func([]byte, *T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for i := range s {
		b = enc(b, &s[i])
	}
	return b
}

// ReadSlice decodes a list written by AppendSlice, each element with dec;
// minBytes is an element's smallest encoding (see Count). An empty list
// decodes to nil.
func ReadSlice[T any](r *Reader, minBytes int, dec func(*Reader, *T)) []T {
	n := r.Count(minBytes)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		dec(r, &s[i])
	}
	return s
}

// Float64s reads a counted float64 block into a freshly allocated slice the
// caller owns; nil for an empty block.
func (r *Reader) Float64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[8*i:]))
	}
	r.buf = r.buf[8*n:]
	return fs
}

// recordChunk is the most ReadRecord allocates on the strength of a length
// prefix alone; beyond it the buffer grows only as bytes actually arrive.
const recordChunk = 64 << 10

// ReadRecord reads one length-prefixed record from br into buf's storage,
// growing it as needed, and returns the record — pass it back as buf to
// reuse the storage for the next record. A length above limit is rejected
// without reading further. A clean end of input before the first length byte
// is io.EOF; anything shorter than the announced length is
// io.ErrUnexpectedEOF.
func ReadRecord(br *bufio.Reader, buf []byte, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("%w: record of %d bytes exceeds the %d-byte cap", ErrCorrupt, n, limit)
	}
	buf = buf[:0]
	for uint64(len(buf)) < n {
		// A hostile prefix can announce far more than will ever arrive, so
		// beyond the storage already held the buffer at most doubles per
		// step: what is allocated stays within 2x of the bytes received.
		step := min(n, uint64(max(cap(buf), len(buf)+max(len(buf), recordChunk))))
		got := len(buf)
		buf = slices.Grow(buf, int(step)-got)[:step]
		if _, err := io.ReadFull(br, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}
