package wire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A record file — the stream checkpoint ("EVCK"), the world file ("EVWD") —
// is a magic string and a version byte, then records, each a uvarint length
// and that many bytes (ReadRecord, under a cap that bounds a legitimate
// record: the buffer grows only as bytes arrive).
const maxFileRecord = 1 << 30

// ErrNoMagic reports a file of another format, or from before record files.
var ErrNoMagic = errors.New("wire: no magic")

// FileWriter writes a record file through one reused encode buffer.
type FileWriter struct {
	bw  *bufio.Writer
	buf []byte
	n   [binary.MaxVarintLen64]byte
}

// NewFileWriter starts a record file on w.
func NewFileWriter(w io.Writer, magic string, version byte) *FileWriter {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(magic)
	bw.WriteByte(version)
	return &FileWriter{bw: bw}
}

// Record writes what enc appends to an empty buffer as one record.
func (fw *FileWriter) Record(enc func([]byte) []byte) {
	fw.buf = enc(fw.buf[:0])
	fw.bw.Write(fw.n[:binary.PutUvarint(fw.n[:], uint64(len(fw.buf)))])
	fw.bw.Write(fw.buf)
}

// Flush reports the first failed write: a bufio.Writer's error is sticky.
func (fw *FileWriter) Flush() error { return fw.bw.Flush() }

// FileReader reads a record file one record at a time into one buffer.
type FileReader struct {
	br  *bufio.Reader
	rec []byte
}

// NewFileReader checks r's magic and version and reads the records behind.
func NewFileReader(r io.Reader, magic string, version byte) (*FileReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w %q", ErrNoMagic, magic)
	}
	if v := head[len(magic)]; v != version {
		return nil, fmt.Errorf("%s version %d (want %d)", magic, v, version)
	}
	return &FileReader{br: br}, nil
}

// Record reads the next record and hands it to decode, which must consume it
// exactly and keep nothing aliasing it; what names it in errors.
func (fr *FileReader) Record(what string, decode func(*Reader)) error {
	var err error
	if fr.rec, err = ReadRecord(fr.br, fr.rec, maxFileRecord); err != nil {
		return fmt.Errorf("read %s: %w", what, err)
	}
	r := NewReader(fr.rec)
	if decode(r); r.Err() != nil {
		return fmt.Errorf("decode %s: %w", what, r.Err())
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %s has %d trailing bytes", ErrCorrupt, what, r.Len())
	}
	return nil
}

// End fails unless the file ends after the records read so far.
func (fr *FileReader) End() error {
	if _, err := fr.br.ReadByte(); err != io.EOF {
		return cmp.Or(err, fmt.Errorf("%w: data after the last record", ErrCorrupt))
	}
	return nil
}
