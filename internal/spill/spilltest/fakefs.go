// Package spilltest provides an in-memory spill.FS with fault injection
// and crash semantics, shared by the spill unit tests, the mapreduce
// fault-path tests, and the checkpoint crash drill.
package spilltest

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"

	"evmatching/internal/spill"
)

// inode is the backing store for one file. data is the live content; synced
// is the prefix that would survive a crash (updated by File.Sync).
type inode struct {
	data   []byte
	synced []byte
}

// MemFS is an in-memory filesystem with explicit durability modeling:
//
//   - File content survives Crash only up to the last File.Sync.
//   - Directory entries (creates, renames, removes) survive Crash only
//     after the parent directory has been fsynced (Open dir + Sync), the
//     same contract as a real POSIX filesystem.
//
// Optional On* hooks inject faults; Capacity bounds total bytes written
// (exceeding it yields a wrapped syscall.ENOSPC).
type MemFS struct {
	mu      sync.Mutex
	live    map[string]*inode // current namespace
	durable map[string]*inode // namespace as it would appear after a crash
	tempSeq int
	written int64

	// Capacity, when > 0, is the total byte budget across all writes;
	// writes past it fail with syscall.ENOSPC.
	Capacity int64

	// Fault hooks. A nil hook means "no fault". OnWrite may return a short
	// count with a nil error to model a short write.
	OnCreate func(name string) error
	OnWrite  func(name string, p []byte) (int, error, bool) // bool = hook handled it
	OnSync   func(name string) error
	OnRename func(oldpath, newpath string) error
	OnRemove func(name string) error
	OnOpen   func(name string) error
}

// NewMemFS returns an empty MemFS.
func NewMemFS() *MemFS {
	return &MemFS{
		live:    make(map[string]*inode),
		durable: make(map[string]*inode),
	}
}

var _ spill.FS = (*MemFS)(nil)

func (m *MemFS) Create(name string) (spill.File, error) {
	if m.OnCreate != nil {
		if err := m.OnCreate(name); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := &inode{}
	m.live[name] = ino
	return &memFile{fs: m, name: name, ino: ino}, nil
}

func (m *MemFS) Open(name string) (spill.File, error) {
	if m.OnOpen != nil {
		if err := m.OnOpen(name); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ino, ok := m.live[name]; ok {
		return &memFile{fs: m, name: name, ino: ino}, nil
	}
	// Any other path opens as a directory handle: MemFS treats directories
	// as implicit, and a dir handle exists to receive the namespace fsync.
	return &memFile{fs: m, name: name, dir: true}, nil
}

func (m *MemFS) CreateTemp(dir, pattern string) (spill.File, error) {
	m.mu.Lock()
	m.tempSeq++
	seq := m.tempSeq
	m.mu.Unlock()
	if dir == "" {
		dir = "/tmp"
	}
	name := filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprintf("%06d", seq), 1))
	return m.Create(name)
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	if m.OnRename != nil {
		if err := m.OnRename(oldpath, newpath); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.live[oldpath]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldpath, syscall.ENOENT)
	}
	delete(m.live, oldpath)
	m.live[newpath] = ino
	return nil
}

func (m *MemFS) Remove(name string) error {
	if m.OnRemove != nil {
		if err := m.OnRemove(name); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[name]; !ok {
		return fmt.Errorf("remove %s: %w", name, syscall.ENOENT)
	}
	delete(m.live, name)
	return nil
}

func (m *MemFS) MkdirTemp(dir, pattern string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tempSeq++
	if dir == "" {
		dir = "/tmp"
	}
	return filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprintf("%06d", m.tempSeq), 1)), nil
}

func (m *MemFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := path + string(filepath.Separator)
	for name := range m.live { // deletion set; order-independent
		if name == path || strings.HasPrefix(name, prefix) {
			delete(m.live, name)
		}
	}
	return nil
}

// Crash simulates power loss: the namespace reverts to its last
// directory-synced state and every file's content reverts to its last
// File.Sync image.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live = make(map[string]*inode, len(m.durable))
	for name, ino := range m.durable { // map rebuild; order-independent
		ino.data = append([]byte(nil), ino.synced...)
		m.live[name] = ino
	}
}

// syncDirLocked promotes all live entries under dir into the durable
// namespace, and drops durable entries under dir that no longer exist.
func (m *MemFS) syncDirLocked(dir string) {
	for name, ino := range m.live { // set promotion; order-independent
		if filepath.Dir(name) == dir {
			m.durable[name] = ino
		}
	}
	for name := range m.durable { // deletion set; order-independent
		if filepath.Dir(name) == dir {
			if _, ok := m.live[name]; !ok {
				delete(m.durable, name)
			}
		}
	}
}

// Exists reports whether name is present in the live namespace.
func (m *MemFS) Exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.live[name]
	return ok
}

// Names lists the live namespace in sorted order.
func (m *MemFS) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.live))
	for name := range m.live { // sorted below; order-independent
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// ReadFile returns the live content of name.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.live[name]
	if !ok {
		return nil, fmt.Errorf("readfile %s: %w", name, syscall.ENOENT)
	}
	return append([]byte(nil), ino.data...), nil
}

// memFile implements spill.File over an inode (or a directory handle).
type memFile struct {
	fs   *MemFS
	name string
	ino  *inode
	dir  bool
	pos  int64
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(p []byte) (int, error) {
	if f.dir {
		return 0, fmt.Errorf("write %s: is a directory", f.name)
	}
	if f.fs.OnWrite != nil {
		if n, err, handled := f.fs.OnWrite(f.name, p); handled {
			f.fs.mu.Lock()
			f.ino.data = append(f.ino.data, p[:n]...)
			f.fs.mu.Unlock()
			if err == nil && n < len(p) {
				err = io.ErrShortWrite
			}
			return n, err
		}
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.Capacity > 0 && f.fs.written+int64(len(p)) > f.fs.Capacity {
		room := f.fs.Capacity - f.fs.written
		if room < 0 {
			room = 0
		}
		f.ino.data = append(f.ino.data, p[:room]...)
		f.fs.written = f.fs.Capacity
		return int(room), fmt.Errorf("write %s: %w", f.name, syscall.ENOSPC)
	}
	f.ino.data = append(f.ino.data, p...)
	f.fs.written += int64(len(p))
	return len(p), nil
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.dir {
		return 0, fmt.Errorf("read %s: is a directory", f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.pos >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.dir {
		return 0, fmt.Errorf("read %s: is a directory", f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error {
	if f.fs.OnSync != nil {
		if err := f.fs.OnSync(f.name); err != nil {
			return err
		}
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.dir {
		f.fs.syncDirLocked(f.name)
		return nil
	}
	f.ino.synced = append([]byte(nil), f.ino.data...)
	return nil
}

func (f *memFile) Close() error { return nil }
