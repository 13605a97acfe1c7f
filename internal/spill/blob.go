package spill

import (
	"fmt"
	"io"
	"sync"
)

// BlobRef locates one payload inside a BlobLog.
type BlobRef struct {
	Off int64
	Len int64
}

// BlobLog is an append-only byte log backed by an unlinked temp file: the
// file is removed from the directory the moment it is created, so the
// kernel reclaims it automatically when the log (or the process) dies —
// there is no cleanup path to forget. Sealed-window scenario payloads are
// appended once at eviction time and read back by BlobRef at merge/split
// or finalize time.
//
// Appends are serialized by a mutex; reads go through ReadAt and may run
// concurrently with each other and with appends.
type BlobLog struct {
	mu  sync.Mutex
	f   File
	off int64
}

// NewBlobLog creates the backing temp file in dir (the OS default temp
// directory when dir is empty) and immediately unlinks it.
func NewBlobLog(fsys FS, dir string) (*BlobLog, error) {
	f, err := fsys.CreateTemp(dir, "evspill-*.blob")
	if err != nil {
		return nil, fmt.Errorf("spill: create blob log: %w", err)
	}
	// Unlink now: the open handle keeps the inode alive, and nothing can
	// leak a stray file if the process is killed.
	if err := fsys.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: unlink blob log %s: %w", f.Name(), err)
	}
	return &BlobLog{f: f}, nil
}

// Append writes data at the end of the log and returns its location.
func (l *BlobLog) Append(data []byte) (BlobRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.f.Write(data)
	if err != nil {
		return BlobRef{}, fmt.Errorf("spill: blob append: %w", err)
	}
	if n != len(data) {
		return BlobRef{}, fmt.Errorf("spill: blob append: short write %d of %d: %w", n, len(data), io.ErrShortWrite)
	}
	ref := BlobRef{Off: l.off, Len: int64(len(data))}
	l.off += int64(n)
	return ref, nil
}

// ReadAt reads the payload ref points to.
func (l *BlobLog) ReadAt(ref BlobRef) ([]byte, error) {
	buf := make([]byte, ref.Len)
	if _, err := l.f.ReadAt(buf, ref.Off); err != nil {
		return nil, fmt.Errorf("spill: blob read at %d (+%d): %w", ref.Off, ref.Len, err)
	}
	return buf, nil
}

// Name returns the path the backing file was created at (already unlinked).
func (l *BlobLog) Name() string { return l.f.Name() }

// Close releases the file handle; the unlinked inode is reclaimed by the
// kernel.
func (l *BlobLog) Close() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("spill: close blob log: %w", err)
	}
	return nil
}
