package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"evmatching/internal/mapreduce"
)

// TestWriteKVFileConcurrentAttempts is the regression test for the fixed
// ".tmp" staging name: attempts of one task writing the same path at once
// used to rename each other's temp file away (ENOENT for the loser). Every
// write must succeed, every read must see exactly one writer's complete
// pairs, and no temp file may be left behind.
func TestWriteKVFileConcurrentAttempts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job-j-out-00000.json")
	const writers, rounds, pairs = 16, 50, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kvs := make([]mapreduce.KeyValue, pairs)
			for i := range kvs {
				kvs[i] = mapreduce.KeyValue{Key: fmt.Sprintf("k%02d", i), Value: fmt.Sprintf("writer-%02d", g)}
			}
			for r := 0; r < rounds; r++ {
				if err := writeKVFile(path, kvs); err != nil {
					errs <- err
					return
				}
				got, err := readKVFile(path)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != pairs {
					errs <- fmt.Errorf("read %d pairs, want %d", len(got), pairs)
					return
				}
				for i, kv := range got {
					if kv.Key != fmt.Sprintf("k%02d", i) || kv.Value != got[0].Value {
						errs <- fmt.Errorf("pair %d is %v beside %v: the file mixes writers", i, kv, got[0])
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

// TestWriteKVFileRemovesTempOnFailure: a rename that cannot succeed (the
// target is a non-empty directory) must not leave the staged file behind.
func TestWriteKVFileRemovesTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeKVFile(path, []mapreduce.KeyValue{{Key: "k", Value: "v"}}); err == nil {
		t.Fatal("writing over a non-empty directory succeeded")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("a failed write left %d entries beside the target, want none", len(left)-1)
	}
}
