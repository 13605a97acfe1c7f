package spill

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
)

// WriteFileAtomic writes path durably: the payload goes to path+".tmp",
// is flushed and fsynced, the temp file is renamed over path, and the
// parent directory is fsynced so the rename itself survives a crash.
// On any error the temp file is removed and path is left untouched.
//
// This is the one write path for checkpoints (runs are scratch state and
// skip the syncs: see WriteRun). The original evstream checkpoint writer
// closed and renamed without either sync — a power cut after the rename
// could surface a zero-length "checkpoint".
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("spill: create %s: %w", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp)
		}
	}()

	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return fmt.Errorf("spill: write %s: %w", tmp, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("spill: flush %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("spill: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("spill: close %s: %w", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("spill: rename %s -> %s: %w", tmp, path, err)
	}
	if err = syncDir(fsys, filepath.Dir(path)); err != nil {
		return fmt.Errorf("spill: sync parent of %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("fsync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("close dir %s: %w", dir, err)
	}
	return nil
}
