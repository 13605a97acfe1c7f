package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"evmatching/internal/spill"
	"evmatching/internal/spill/spilltest"
)

// spillLines builds enough word-count input that tiny budgets force many
// run files per worker.
func spillLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta-%d gamma delta-%d alpha epsilon word%d", i%13, i%7, i%101)
	}
	return lines
}

// TestSpilledMatchesInMemory pins, on a job big enough that every budget
// here is exceeded, that the flushed shuffle produces byte-identical output
// to the unbudgeted one while actually spilling: every spill counter and the
// shared Stats move. (The budget-invariance sweep in conformance_test.go
// covers the job shapes, worker counts and the budgets that do not spill.)
func TestSpilledMatchesInMemory(t *testing.T) {
	lines := spillLines(400)
	want, err := ParallelExecutor{Workers: 4}.Run(context.Background(), wordCountJob(lines))
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 256, 8192} {
		for _, combine := range []bool{false, true} {
			t.Run(fmt.Sprintf("budget=%d combine=%v", budget, combine), func(t *testing.T) {
				job := wordCountJob(lines)
				if combine {
					job.Combine = sumCombiner
				}
				stats := &spill.Stats{}
				exec := ParallelExecutor{
					Workers:   4,
					MemBudget: budget,
					SpillDir:  t.TempDir(),
					Stats:     stats,
				}
				got, err := exec.Run(context.Background(), job)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Output, want.Output) {
					t.Fatalf("spilled output differs from in-memory (budget=%d)", budget)
				}
				if got.Counters.Get(CounterSpillRuns) == 0 {
					t.Fatal("budget never forced a run flush; test exercises nothing")
				}
				if got.Counters.Get(CounterSpillMerged) == 0 || got.Counters.Get(CounterSpillBytes) == 0 {
					t.Fatalf("spill counters incomplete: %+v", got.Counters.Snapshot())
				}
				sn := stats.Snapshot()
				if !sn.Spilled() || sn.RunsWritten == 0 || sn.RunsMerged == 0 {
					t.Fatalf("stats not accumulated: %+v", sn)
				}
			})
		}
	}
}

// TestSpilledSortOnlyJob covers the Reduce==nil, Combine!=nil shape, which
// shuffles (and therefore spills) but returns merged pairs directly. A
// combiner's partial sums already depend on grouping — serial folds once,
// parallel folds per worker — so the contract for this shape is semantic:
// re-folding the partials per key must agree with the in-memory run, and
// the stream must come back globally sorted.
func TestSpilledSortOnlyJob(t *testing.T) {
	refold := func(kvs []KeyValue) map[string]int {
		sums := make(map[string]int)
		for _, kv := range kvs {
			n, err := strconv.Atoi(kv.Value)
			if err != nil {
				t.Fatalf("non-numeric partial %q: %v", kv.Value, err)
			}
			sums[kv.Key] += n
		}
		return sums
	}
	job := wordCountJob(spillLines(200))
	job.Reduce = nil
	job.Combine = sumCombiner
	want, err := ParallelExecutor{Workers: 3}.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	job2 := wordCountJob(spillLines(200))
	job2.Reduce = nil
	job2.Combine = sumCombiner
	got, err := ParallelExecutor{Workers: 3, MemBudget: 64, SpillDir: t.TempDir()}.Run(context.Background(), job2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refold(got.Output), refold(want.Output)) {
		t.Fatal("spilled sort-only partials do not re-fold to the in-memory totals")
	}
	if !sortedKVs(got.Output) {
		t.Fatal("spilled sort-only output not in (key, value) order")
	}
	if got.Counters.Get(CounterSpillRuns) == 0 {
		t.Fatal("sort-only job never spilled")
	}
}

// sortedKVs reports whether kvs is in canonical (key, value) order.
func sortedKVs(kvs []KeyValue) bool {
	for i := 1; i < len(kvs); i++ {
		a, b := kvs[i-1], kvs[i]
		if a.Key > b.Key || (a.Key == b.Key && a.Value > b.Value) {
			return false
		}
	}
	return true
}

// TestSpilledENOSPC degrades with a wrapped error when the disk fills
// mid-flush — never a panic, never silently-wrong output.
func TestSpilledENOSPC(t *testing.T) {
	fs := spilltest.NewMemFS()
	fs.Capacity = 512
	exec := ParallelExecutor{Workers: 2, MemBudget: 32, FS: fs}
	_, err := exec.Run(context.Background(), wordCountJob(spillLines(300)))
	if err == nil {
		t.Fatal("full disk produced no error")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want wrapped ENOSPC, got %v", err)
	}
}

// TestSpilledShortWrite covers an n < len(p), err == nil device: the run
// writer must detect it rather than persist a truncated run.
func TestSpilledShortWrite(t *testing.T) {
	fs := spilltest.NewMemFS()
	fs.OnWrite = func(name string, p []byte) (int, error, bool) {
		if strings.Contains(name, ".run") && len(p) > 1 {
			return len(p) / 2, nil, true
		}
		return 0, nil, false
	}
	exec := ParallelExecutor{Workers: 2, MemBudget: 32, FS: fs}
	_, err := exec.Run(context.Background(), wordCountJob(spillLines(300)))
	if err == nil {
		t.Fatal("short writes produced no error")
	}
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want wrapped io.ErrShortWrite, got %v", err)
	}
}

// TestSpilledRunDeletedMidJob models the spill directory being destroyed
// between flush and merge (tmp reaper, operator cleanup): opening the run
// at reduce time fails and the job degrades with a wrapped error.
func TestSpilledRunDeletedMidJob(t *testing.T) {
	fs := spilltest.NewMemFS()
	fs.OnOpen = func(name string) error {
		if strings.Contains(name, ".run") {
			return fmt.Errorf("open %s: %w", name, syscall.ENOENT)
		}
		return nil
	}
	exec := ParallelExecutor{Workers: 2, MemBudget: 32, FS: fs}
	_, err := exec.Run(context.Background(), wordCountJob(spillLines(300)))
	if err == nil {
		t.Fatal("deleted runs produced no error")
	}
	if !errors.Is(err, syscall.ENOENT) {
		t.Fatalf("want wrapped ENOENT, got %v", err)
	}
}
