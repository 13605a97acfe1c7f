package cluster

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
)

// FuzzTaskResultDecode throws arbitrary wire-level task reports — wrong job
// IDs, out-of-range task IDs, hostile kinds, duplicated and reordered
// deliveries — plus arbitrary record-file bytes at the coordinator, asserting it
// never panics and its task accounting never goes negative. This is the
// safety net behind the chaos harness: injected duplicate/reordered results
// must be absorbable no matter what they contain.
func FuzzTaskResultDecode(f *testing.F) {
	f.Add([]byte(`[{"Key":"a","Value":"1"}]`), "1", int(TaskMap), 0, "", "w0", int64(1))
	f.Add([]byte(`not json`), "2", int(TaskReduce), 99, "boom", "w1", int64(-7))
	f.Add([]byte(`[]`), "", int(TaskWait), -1, "", "", int64(0))
	f.Add([]byte{0xff, 0xfe}, "1", 255, 1<<30, "x", "w0", int64(1<<40))
	f.Add([]byte{0x01, 'a', 0xff, 0xff, 0xff, 0xff, 0x03, 'b'}, "1", int(TaskMap), 0, "", "w0", int64(1)) // 1 GiB value length

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, jobID string, kind int, taskID int, errStr string, worker string, counter int64) {
		// Wire decode: arbitrary bytes in a shared-directory record file must
		// error or parse, never panic (nor allocate what a hostile length
		// prefix claims). The file name is fixed: job IDs are
		// coordinator-generated, only the bytes are attacker-shaped.
		path := filepath.Join(dir, "fuzz-input")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = spill.ReadRun(spill.OS{}, path)

		// Coordinator accounting: build an active job directly (no RPC) and
		// fire hostile reports at it, twice each to model duplicates, then a
		// request, then the reports again to model reordering.
		c, err := NewCoordinator(CoordinatorConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		job := &activeJob{
			id:          "1",
			spec:        JobSpec{Name: "fuzz", MapName: "m", ReduceName: "r", NumMapTasks: 2, NumReducers: 2},
			submitted:   time.Now(),
			mapTasks:    newTasks(2),
			reduceTasks: newTasks(2),
			mapsLeft:    2,
			reducesLeft: 2,
			counters:    mapreduce.NewCounters(),
			done:        make(chan struct{}),
		}
		c.job = job
		rpc := &coordinatorRPC{c: c}

		report := &TaskReport{
			WorkerID: worker,
			JobID:    jobID,
			Kind:     TaskKind(kind),
			TaskID:   taskID,
			Err:      errStr,
			Counters: map[string]int64{"fuzz.counter": counter},
		}
		for i := 0; i < 2; i++ {
			_ = rpc.ReportTask(report, &TaskAck{})
		}
		var reply TaskReply
		_ = rpc.RequestTask(&TaskRequest{WorkerID: worker}, &reply)
		_ = rpc.ReportTask(report, &TaskAck{})

		c.mu.Lock()
		if job.mapsLeft < 0 || job.reducesLeft < 0 {
			t.Errorf("task accounting went negative: maps=%d reduces=%d", job.mapsLeft, job.reducesLeft)
		}
		for i := range job.mapTasks {
			if job.mapTasks[i].state == taskCompleted && job.mapsLeft > len(job.mapTasks) {
				t.Errorf("inconsistent map accounting")
			}
		}
		c.mu.Unlock()
	})
}
