package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
	"evmatching/internal/spill/spilltest"
)

// betweenPhases is a FaultPlan that injects no fault but runs fn once, on
// the worker about to execute the job's first reduce task: every map task
// has completed by then and no reducer has opened a file yet.
type betweenPhases struct {
	once sync.Once
	fn   func(jobID string)
}

func (p *betweenPhases) TaskFault(_, jobID string, kind TaskKind, _ int) TaskFault {
	if kind == TaskReduce {
		p.once.Do(func() { p.fn(jobID) })
	}
	return TaskFault{}
}

func (p *betweenPhases) DropHeartbeat(string, int) bool { return false }

// startPhasedCluster boots one worker (so nothing runs beside the hook) with
// speculation off (so no second attempt rewrites a file under it).
func startPhasedCluster(t *testing.T, fn func(tc *testCluster, jobID string)) *testCluster {
	t.Helper()
	var tc *testCluster
	plan := &betweenPhases{fn: func(jobID string) { fn(tc, jobID) }}
	tc = startClusterCfg(t, 0, CoordinatorConfig{TaskTimeout: time.Minute, SpeculativeAfter: -1}, nil)
	tc.addWorker(t, WorkerConfig{ID: "w0", Faults: plan})
	return tc
}

var storageLines = []string{"a b a", "b c", "a", "c c c", "d a b", "e d e a", "b b", "f a c e"}

// TestMissingIntermediateFailsJob: a completed map task has written all R of
// its files, so one that is gone at reduce time is loss. It used to read as
// an empty bucket and yield a silently smaller count; it must fail the job
// with the typed error and leave nothing behind.
func TestMissingIntermediateFailsJob(t *testing.T) {
	tc := startPhasedCluster(t, func(tc *testCluster, jobID string) {
		// Map task 0 holds "a b a": its bucket for "a"'s partition.
		path := intermediateFile(tc.dir, jobID, 0, mapreduce.Partition("a", wcSpec().NumReducers))
		if err := os.Remove(path); err != nil {
			t.Errorf("the map phase left no %s: %v", filepath.Base(path), err)
		}
	})
	res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines(storageLines))
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("job over a deleted intermediate file: result %v, err %v; want ErrTaskFailed", res, err)
	}
	if !strings.Contains(err.Error(), "-mr-") {
		t.Errorf("error does not name the lost file: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(tc.dir, "*")); len(left) != 0 {
		t.Errorf("failed job left files behind: %v", left)
	}
}

// TestMapOutputsAreSortedRuns pins the shuffle's file format: after the map
// phase all M×R intermediate files exist — empty buckets included — and
// each opens with spill.OpenRun as a (key, value)-sorted run, which is what
// lets a reducer merge them instead of sorting their concatenation.
func TestMapOutputsAreSortedRuns(t *testing.T) {
	spec := wcSpec()
	spec.CombineName = "wc.combine"
	var files, records, empty int
	tc := startPhasedCluster(t, func(tc *testCluster, jobID string) {
		for m := 0; m < spec.NumMapTasks; m++ {
			for r := 0; r < spec.NumReducers; r++ {
				run, err := spill.ReadRun(spill.OS{}, intermediateFile(tc.dir, jobID, m, r))
				if err != nil {
					t.Errorf("map %d bucket %d: %v", m, r, err)
					continue
				}
				files++
				records += len(run)
				if len(run) == 0 {
					empty++
				}
				if !slices.Equal(run, mapreduce.Gather([][]mapreduce.KeyValue{run})) {
					t.Errorf("map %d bucket %d is not a sorted run: %v", m, r, run)
				}
				for _, kv := range run {
					if mapreduce.Partition(kv.Key, spec.NumReducers) != r {
						t.Errorf("map %d bucket %d holds %v", m, r, kv)
					}
				}
			}
		}
	})
	res, err := tc.coord.RunJob(context.Background(), spec, wordLines(storageLines))
	if err != nil {
		t.Fatal(err)
	}
	if files != spec.NumMapTasks*spec.NumReducers || empty == 0 {
		t.Errorf("map phase left %d readable files (%d empty), want %d with some empty", files, empty, spec.NumMapTasks*spec.NumReducers)
	}
	if got := res.Counters.Get(mapreduce.CounterCombineOut); int64(records) != got {
		t.Errorf("intermediate files hold %d records, combine.out = %d", records, got)
	}
}

// TestStorageFaults runs jobs over spilltest's fake filesystem with a fault
// on the shuffle's files: a full device and a short write under a map
// output, a run cut short before its reducer reads it. Each must fail the
// job with ErrTaskFailed carrying the cause — never a panic, never a result.
func TestStorageFaults(t *testing.T) {
	isShuffleFile := func(name string) bool { return strings.Contains(name, "-mr-") }
	faults := []struct {
		name   string
		inject func(fs *spilltest.MemFS)
		cause  error
	}{
		{"ENOSPC on a map output", func(fs *spilltest.MemFS) {
			fs.OnWrite = func(name string, p []byte) (int, error, bool) {
				if isShuffleFile(name) {
					return 0, fmt.Errorf("write %s: %w", name, syscall.ENOSPC), true
				}
				return 0, nil, false
			}
		}, syscall.ENOSPC},
		{"short write on a map output", func(fs *spilltest.MemFS) {
			fs.OnWrite = func(name string, p []byte) (int, error, bool) {
				if isShuffleFile(name) && len(p) > 1 {
					return len(p) / 2, nil, true
				}
				return 0, nil, false
			}
		}, io.ErrShortWrite},
		{"truncated run at reduce", func(fs *spilltest.MemFS) {
			// Cut the last byte off every non-empty run as it is renamed
			// into place: the writer saw success, the reader sees a record
			// that ends early.
			fs.OnRename = func(oldpath, newpath string) error {
				data, err := fs.ReadFile(oldpath)
				if !isShuffleFile(newpath) || err != nil || len(data) == 0 {
					return nil
				}
				f, err := fs.Create(oldpath)
				if err != nil {
					return err
				}
				_, err = f.Write(data[:len(data)-1])
				return err
			}
		}, io.ErrUnexpectedEOF},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			fs := spilltest.NewMemFS()
			tc := startClusterCfg(t, 0, CoordinatorConfig{TaskTimeout: time.Minute}, nil)
			tc.coord.fsys = fs
			tc.fsys = fs
			for i := 0; i < 2; i++ {
				tc.addWorker(t, WorkerConfig{ID: fmt.Sprintf("w%d", i)})
			}
			// The same job on the same fake with no fault is the control:
			// the fake carries a whole job.
			want, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines(storageLines))
			if err != nil {
				t.Fatalf("control job: %v", err)
			}
			if serial := serialWordCount(t, storageLines); !reflect.DeepEqual(want.Output, serial) {
				t.Fatalf("control job output = %v, want %v", want.Output, serial)
			}
			fault.inject(fs)
			res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines(storageLines))
			if !errors.Is(err, ErrTaskFailed) {
				t.Fatalf("result %v, err %v; want ErrTaskFailed", res, err)
			}
			// The cause crosses the RPC as text.
			if !strings.Contains(err.Error(), fault.cause.Error()) {
				t.Errorf("error does not carry %q: %v", fault.cause, err)
			}
		})
	}
}

// serialWordCount is the reference output for a wcSpec job over lines.
func serialWordCount(t *testing.T, lines []string) []mapreduce.KeyValue {
	t.Helper()
	res, err := mapreduce.SerialExecutor{}.Run(context.Background(), executorWordCountJob(lines))
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}
