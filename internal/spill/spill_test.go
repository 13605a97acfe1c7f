package spill_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"evmatching/internal/spill"
	"evmatching/internal/spill/spilltest"
)

// --- WriteFileAtomic ---

func TestWriteFileAtomicDurable(t *testing.T) {
	fs := spilltest.NewMemFS()
	if err := spill.WriteFileAtomic(fs, "/ckpt/state.gob", func(w io.Writer) error {
		_, err := io.WriteString(w, "payload-v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// The whole point: content and directory entry survive a crash
	// immediately after WriteFileAtomic returns.
	fs.Crash()
	got, err := fs.ReadFile("/ckpt/state.gob")
	if err != nil {
		t.Fatalf("checkpoint vanished after crash: %v", err)
	}
	if string(got) != "payload-v1" {
		t.Fatalf("checkpoint content after crash = %q, want %q", got, "payload-v1")
	}
}

// TestWriteFileAtomicWithoutSyncsWouldLose demonstrates the bug the helper
// fixes: the same sequence minus the fsyncs loses the file on crash, which
// is exactly what the fake models.
func TestWriteFileAtomicWithoutSyncsWouldLose(t *testing.T) {
	fs := spilltest.NewMemFS()
	f, err := fs.Create("/ckpt/state.gob.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "payload-v1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/ckpt/state.gob.tmp", "/ckpt/state.gob"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if fs.Exists("/ckpt/state.gob") {
		t.Fatal("sync-free rename survived the crash; the fake no longer models the durability bug")
	}
}

func TestWriteFileAtomicKeepsOldOnWriteFailure(t *testing.T) {
	fs := spilltest.NewMemFS()
	writeOK := func(w io.Writer) error { _, err := io.WriteString(w, "old"); return err }
	if err := spill.WriteFileAtomic(fs, "/d/f", writeOK); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := spill.WriteFileAtomic(fs, "/d/f", func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("error not wrapped: %v", err)
	}
	got, err2 := fs.ReadFile("/d/f")
	if err2 != nil || string(got) != "old" {
		t.Fatalf("old content clobbered on failed rewrite: %q, %v", got, err2)
	}
	if fs.Exists("/d/f.tmp") {
		t.Fatal("temp file leaked after write failure")
	}
}

func TestWriteFileAtomicSyncFailure(t *testing.T) {
	fs := spilltest.NewMemFS()
	boom := errors.New("sync exploded")
	fs.OnSync = func(name string) error {
		if strings.HasSuffix(name, ".tmp") {
			return boom
		}
		return nil
	}
	err := spill.WriteFileAtomic(fs, "/d/f", func(w io.Writer) error {
		_, werr := io.WriteString(w, "x")
		return werr
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sync failure not propagated wrapped: %v", err)
	}
	if fs.Exists("/d/f") || fs.Exists("/d/f.tmp") {
		t.Fatal("failed atomic write left files behind")
	}
}

func TestWriteFileAtomicENOSPC(t *testing.T) {
	fs := spilltest.NewMemFS()
	fs.Capacity = 4
	err := spill.WriteFileAtomic(fs, "/d/f", func(w io.Writer) error {
		_, werr := io.WriteString(w, "this will not fit at all")
		return werr
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want wrapped ENOSPC, got %v", err)
	}
	if fs.Exists("/d/f") {
		t.Fatal("partial file visible under final name after ENOSPC")
	}
}

// --- run files ---

func testRecords(n int) []spill.Record {
	recs := make([]spill.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, spill.Record{
			Key:   fmt.Sprintf("key-%03d", i%17),
			Value: fmt.Sprintf("value-%05d|%s", i, strings.Repeat("x", i%31)),
		})
	}
	slices.SortFunc(recs, compareRecords)
	return recs
}

func compareRecords(a, b spill.Record) int {
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	if a.Value != b.Value {
		if a.Value < b.Value {
			return -1
		}
		return 1
	}
	return 0
}

func TestRunRoundTrip(t *testing.T) {
	fs := spilltest.NewMemFS()
	recs := testRecords(200)
	size, err := spill.WriteRun(fs, "/spill/r0.run", recs)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("run size = %d, want > 0", size)
	}
	r, err := spill.OpenRun(fs, "/spill/r0.run")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []spill.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !slices.Equal(got, recs) {
		t.Fatalf("round trip mismatch: got %d records, want %d", len(got), len(recs))
	}
}

func TestRunTruncatedMidRecord(t *testing.T) {
	fs := spilltest.NewMemFS()
	recs := testRecords(50)
	if _, err := spill.WriteRun(fs, "/spill/r0.run", recs); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/spill/r0.run")
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite a truncated copy: cut inside the last record.
	trunc := data[:len(data)-3]
	f, err := fs.Create("/spill/trunc.run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(trunc); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := spill.OpenRun(fs, "/spill/trunc.run")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("truncated run read back as a clean EOF; corruption went undetected")
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want wrapped io.ErrUnexpectedEOF, got %v", err)
		}
		return
	}
}

// TestRunLargeField: a field longer than the reader's allocation chunk
// round-trips, and a length prefix promising far more than the file holds
// is a truncation error, not an allocation of what it claims.
func TestRunLargeField(t *testing.T) {
	fs := spilltest.NewMemFS()
	recs := []spill.Record{{Key: "k", Value: strings.Repeat("0123456789abcdef", 5<<16)}, {Key: "l", Value: ""}}
	if _, err := spill.WriteRun(fs, "/spill/big.run", recs); err != nil {
		t.Fatal(err)
	}
	got, err := spill.ReadRun(fs, "/spill/big.run")
	if err != nil || !slices.Equal(got, recs) {
		t.Fatalf("large field did not round-trip: %d records, err %v", len(got), err)
	}
	f, err := fs.Create("/spill/liar.run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 'k', 0xff, 0xff, 0xff, 0xff, 0x03, 'v'}); err != nil { // 1 GiB − 1 value
		t.Fatal(err)
	}
	if _, err := spill.ReadRun(fs, "/spill/liar.run"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want wrapped io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestWriteRunConcurrentAttempts is the regression test for a fixed staging
// name: attempts of one cluster task writing the same path at once used to
// rename each other's temp file away (ENOENT for the loser — the PR 17
// TestSim flake). Every write must succeed, every read must see exactly one
// writer's complete records, and no temp file may be left behind.
func TestWriteRunConcurrentAttempts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job-j-out-00000")
	const writers, rounds, pairs = 16, 50, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := make([]spill.Record, pairs)
			for i := range recs {
				recs[i] = spill.Record{Key: fmt.Sprintf("k%02d", i), Value: fmt.Sprintf("writer-%02d", g)}
			}
			for r := 0; r < rounds; r++ {
				if _, err := spill.WriteRun(spill.OS{}, path, recs); err != nil {
					errs <- err
					return
				}
				got, err := spill.ReadRun(spill.OS{}, path)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != pairs {
					errs <- fmt.Errorf("read %d records, want %d", len(got), pairs)
					return
				}
				for i, rec := range got {
					if rec.Key != fmt.Sprintf("k%02d", i) || rec.Value != got[0].Value {
						errs <- fmt.Errorf("record %d is %v beside %v: the file mixes writers", i, rec, got[0])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != filepath.Base(path) {
		t.Errorf("directory holds %d entries after the writers finished, want only %s", len(left), filepath.Base(path))
	}
}

// TestWriteRunRemovesTempOnFailure: a rename that cannot succeed (the target
// is a non-empty directory) and a write the device refuses must not leave
// the staged file behind.
func TestWriteRunRemovesTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := spill.WriteRun(spill.OS{}, path, []spill.Record{{Key: "k", Value: "v"}}); err == nil {
		t.Fatal("writing over a non-empty directory succeeded")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("a failed write left %d entries beside the target, want none", len(left)-1)
	}

	fs := spilltest.NewMemFS()
	fs.Capacity = 8
	if _, err := spill.WriteRun(fs, "/spill/r0.run", testRecords(50)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want wrapped ENOSPC, got %v", err)
	}
	if names := fs.Names(); len(names) != 0 {
		t.Errorf("a failed write left %v behind", names)
	}
}

// TestWriteRunDoesNotSync pins the decision that runs are scratch: a device
// whose every fsync fails still takes a run (WriteFileAtomic, the durable
// path, fails on it: TestWriteFileAtomicSyncFailure).
func TestWriteRunDoesNotSync(t *testing.T) {
	fs := spilltest.NewMemFS()
	fs.OnSync = func(name string) error { return errors.New("fsync lost the device") }
	recs := testRecords(20)
	if _, err := spill.WriteRun(fs, "/spill/r0.run", recs); err != nil {
		t.Fatal(err)
	}
	got, err := spill.ReadRun(fs, "/spill/r0.run")
	if err != nil || !slices.Equal(got, recs) {
		t.Fatalf("read back %d records, err %v; want %d", len(got), err, len(recs))
	}
}

// --- merge ---

func TestMergeRunsEqualsGlobalSort(t *testing.T) {
	fs := spilltest.NewMemFS()
	// Three sorted runs plus an in-memory tail, with duplicate keys and
	// duplicate (key, value) pairs across sources.
	all := testRecords(300)
	var parts [4][]spill.Record
	for i, rec := range all {
		parts[i%4] = append(parts[i%4], rec)
	}
	var sources []spill.Source
	for i := 0; i < 3; i++ {
		slices.SortFunc(parts[i], compareRecords)
		path := fmt.Sprintf("/spill/r%d.run", i)
		if _, err := spill.WriteRun(fs, path, parts[i]); err != nil {
			t.Fatal(err)
		}
		r, err := spill.OpenRun(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sources = append(sources, r)
	}
	slices.SortFunc(parts[3], compareRecords)
	sources = append(sources, spill.NewSliceSource(parts[3]))

	var merged []spill.Record
	if err := spill.MergeRuns(sources, func(rec spill.Record) error {
		merged = append(merged, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	want := append([]spill.Record(nil), all...)
	slices.SortFunc(want, compareRecords)
	if !slices.Equal(merged, want) {
		t.Fatalf("merge != global sort: got %d records, want %d", len(merged), len(want))
	}
}

func TestMergeRunsSourceDeletedMidMerge(t *testing.T) {
	fs := spilltest.NewMemFS()
	recs := testRecords(100)
	if _, err := spill.WriteRun(fs, "/spill/r0.run", recs); err != nil {
		t.Fatal(err)
	}
	r, err := spill.OpenRun(fs, "/spill/r0.run")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Simulate the backing file being destroyed mid-merge: after a few
	// emits, truncate the inode via a fresh handle... the fake shares the
	// inode, so rewriting the path with empty content models external
	// destruction of buffered-but-unread data. Easier and just as honest:
	// wrap the reader in a source that starts failing.
	broken := &failAfter{src: r, n: 5}
	err = spill.MergeRuns([]spill.Source{broken}, func(spill.Record) error { return nil })
	if err == nil {
		t.Fatal("merge over a dying source succeeded")
	}
	if !errors.Is(err, errGone) {
		t.Fatalf("source failure not wrapped: %v", err)
	}
}

var errGone = errors.New("backing file deleted")

// failAfter passes through n records then fails every subsequent read.
type failAfter struct {
	src  spill.Source
	n    int
	seen int
}

func (f *failAfter) Next() (spill.Record, error) {
	if f.seen >= f.n {
		return spill.Record{}, errGone
	}
	f.seen++
	return f.src.Next()
}

func TestMergeRunsEmitError(t *testing.T) {
	boom := errors.New("downstream full")
	src := spill.NewSliceSource(testRecords(10))
	err := spill.MergeRuns([]spill.Source{src}, func(spill.Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not wrapped: %v", err)
	}
}

// --- budget ---

func TestBudget(t *testing.T) {
	var nilBudget *spill.Budget
	if nilBudget.Enabled() || nilBudget.Over() || nilBudget.Used() != 0 {
		t.Fatal("nil budget must read as unlimited")
	}
	nilBudget.Add(100) // must not panic
	if b := spill.NewBudget(0); b != nil {
		t.Fatal("zero limit should yield nil (unlimited) budget")
	}
	b := spill.NewBudget(100)
	b.Add(60)
	if b.Over() {
		t.Fatal("under limit reported over")
	}
	b.Add(60)
	if !b.Over() {
		t.Fatal("over limit not reported")
	}
	b.Sub(40)
	if b.Over() || b.Used() != 80 || b.Limit() != 100 {
		t.Fatalf("accounting wrong: used=%d limit=%d over=%v", b.Used(), b.Limit(), b.Over())
	}
}

// --- FIFO ---

func TestFIFO(t *testing.T) {
	var q spill.FIFO
	if _, ok := q.Pop(); ok {
		t.Fatal("empty queue popped")
	}
	const n = 1000
	for i := int64(0); i < n; i++ {
		q.Push(i)
	}
	for i := int64(0); i < n; i++ {
		id, ok := q.Pop()
		if !ok || id != i {
			t.Fatalf("pop %d = (%d, %v), want FIFO order", i, id, ok)
		}
		// Interleave pushes to exercise the compaction path.
		if i%3 == 0 {
			q.Push(n + i)
		}
	}
	if q.Len() != n/3+1 {
		t.Fatalf("len = %d, want %d", q.Len(), n/3+1)
	}
}

// --- blob log ---

func TestBlobLog(t *testing.T) {
	fs := spilltest.NewMemFS()
	l, err := spill.NewBlobLog(fs, "/spill")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var refs []spill.BlobRef
	var want [][]byte
	for i := 0; i < 20; i++ {
		payload := []byte(strings.Repeat(fmt.Sprintf("p%d-", i), i+1))
		ref, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		want = append(want, payload)
	}
	// Read back out of order.
	for i := len(refs) - 1; i >= 0; i-- {
		got, err := l.ReadAt(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[i]) {
			t.Fatalf("blob %d mismatch", i)
		}
	}
	// The backing file must already be unlinked: nothing under /spill.
	if fs.Exists(l.Name()) {
		t.Fatal("blob log file still linked in the namespace")
	}
}

func TestBlobLogShortWrite(t *testing.T) {
	fs := spilltest.NewMemFS()
	l, err := spill.NewBlobLog(fs, "/spill")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.OnWrite = func(name string, p []byte) (int, error, bool) {
		return len(p) / 2, nil, true // short write, no error: the nasty case
	}
	_, err = l.Append([]byte("0123456789"))
	if err == nil {
		t.Fatal("short write accepted silently")
	}
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want wrapped io.ErrShortWrite, got %v", err)
	}
}

// --- stats ---

func TestStatsNilSafe(t *testing.T) {
	var s *spill.Stats
	s.AddBytesSpilled(1)
	s.AddRunsWritten(1)
	s.AddRunsMerged(1)
	s.AddReloads(1)
	s.AddEvictions(1)
	if sn := s.Snapshot(); sn != (spill.Snapshot{}) {
		t.Fatalf("nil stats snapshot = %+v, want zero", sn)
	}
	real := &spill.Stats{}
	real.AddBytesSpilled(10)
	real.AddRunsWritten(2)
	real.AddEvictions(3)
	sn := real.Snapshot()
	if sn.BytesSpilled != 10 || sn.RunsWritten != 2 || sn.Evictions != 3 {
		t.Fatalf("snapshot = %+v", sn)
	}
}
