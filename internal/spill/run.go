package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"evmatching/internal/wire"
)

// Record is one (key, value) pair: the unit of data a MapReduce job moves
// (mapreduce.KeyValue is this type) and the record of a run file.
type Record struct {
	Key   string
	Value string
}

// maxRecordLen caps a single key or value read back from a run file.
// Anything larger means the file is corrupt (or not a run file at all).
const maxRecordLen = 1 << 30

// WriteRun writes recs as a record file at path and returns the encoded
// size in bytes. A run is scratch state of a live job — a shuffle bucket, a
// cluster task's input or output — that the job removes when it returns and
// regenerates if it is lost, so nothing is fsynced (WriteFileAtomic is the
// durable path, for checkpoints). The write stages through its own
// CreateTemp name and renames into place: a reader never sees a partial
// file, and concurrent attempts at one path (re-executed or redispatched
// cluster tasks) cannot rename each other's staging file away — the last
// rename wins. The staging file is removed on any failure.
//
// Run format: for each record, uvarint(len(key)) ++ key ++
// uvarint(len(value)) ++ value. No header or trailer — a clean EOF at a
// record boundary ends the run, and an EOF inside a record is corruption.
func WriteRun(fsys FS, path string, recs []Record) (size int64, err error) {
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, fmt.Errorf("spill: write run %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			fsys.Remove(f.Name())
			size, err = 0, fmt.Errorf("spill: write run %s: %w", path, err)
		}
	}()
	bw := bufio.NewWriter(f)
	var lenBuf [binary.MaxVarintLen64]byte
	for _, rec := range recs {
		for _, field := range [2]string{rec.Key, rec.Value} {
			n := binary.PutUvarint(lenBuf[:], uint64(len(field)))
			bw.Write(lenBuf[:n]) // a failed write is sticky: Flush reports it
			bw.WriteString(field)
			size += int64(n + len(field))
		}
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(f.Name(), path)
	}
	return size, err
}

// ReadRun reads a whole record file into memory.
func ReadRun(fsys FS, path string) ([]Record, error) {
	r, err := OpenRun(fsys, path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// RunReader streams records back out of a run file in order.
type RunReader struct {
	name string
	f    File
	br   *bufio.Reader
	buf  []byte
}

// OpenRun opens a run file for sequential reading.
func OpenRun(fsys FS, path string) (*RunReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run %s: %w", path, err)
	}
	return &RunReader{name: path, f: f, br: bufio.NewReader(f)}, nil
}

// Next returns the next record. It returns io.EOF (unwrapped) at a clean
// end of the run; an EOF mid-record surfaces as a wrapped
// io.ErrUnexpectedEOF so callers can tell truncation from completion.
func (r *RunReader) Next() (Record, error) {
	key, err := r.readField(false)
	if err != nil {
		return Record{}, err
	}
	value, err := r.readField(true)
	if err != nil {
		return Record{}, err
	}
	return Record{Key: key, Value: value}, nil
}

// readField reads one length-prefixed string through the reader's one field
// buffer, which grows only as bytes arrive. midRecord marks fields where EOF
// can only mean truncation.
func (r *RunReader) readField(midRecord bool) (string, error) {
	var err error
	r.buf, err = wire.ReadRecord(r.br, r.buf, maxRecordLen)
	if err == io.EOF && !midRecord {
		return "", io.EOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return "", fmt.Errorf("spill: run %s truncated or corrupt: %w", r.name, err)
	}
	return string(r.buf), nil
}

// Close releases the underlying file.
func (r *RunReader) Close() error {
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("spill: close run %s: %w", r.name, err)
	}
	return nil
}
