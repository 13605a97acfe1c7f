package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"evmatching/internal/mapreduce"
)

// TestStatsConcurrentSnapshots races every converted counter field against
// lock-free Stats readers: the statsCounters conversion to typed atomics is
// only correct if concurrent increments and snapshots are race-free (the
// -race tier verifies) and no increment is lost.
func TestStatsConcurrentSnapshots(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	// Each writer hammers every field directly — the in-package seam that
	// pins every converted field under the race detector, independent of
	// which scheduling paths a particular job run happens to take.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				coord.stats.retries.Add(1)
				coord.stats.evictions.Add(1)
				coord.stats.staleReports.Add(1)
			}
		}()
	}
	// Concurrent readers: each field of a snapshot is a monotone counter, so
	// successive snapshots in one goroutine must never go backwards.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last Stats
			for {
				s := coord.Stats()
				if s.Retries < last.Retries || s.Evictions < last.Evictions ||
					s.StaleReports < last.StaleReports {
					t.Errorf("snapshot went backwards: %+v after %+v", s, last)
					return
				}
				last = s
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(writers * perWriter)
	got := coord.Stats()
	for name, v := range map[string]int64{
		"Retries":      got.Retries,
		"Evictions":    got.Evictions,
		"StaleReports": got.StaleReports,
	} {
		if v != want {
			t.Errorf("%s = %d, want %d (increments lost)", name, v, want)
		}
	}
}

// TestStatsRPCSeams drives the counter reachable without a running job —
// stale reports — through the real RPC handler, concurrently with Stats
// readers.
func TestStatsRPCSeams(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	rpc := &coordinatorRPC{c: coord}

	const callers, perCaller = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < perCaller; i++ {
				// No job is running, so every report is stale by definition.
				if err := rpc.ReportTask(&TaskReport{WorkerID: id, JobID: "ghost", Kind: TaskMap}, &TaskAck{}); err != nil {
					t.Errorf("ReportTask: %v", err)
					return
				}
				_ = coord.Stats() // reader racing the handler's increments
			}
		}(w)
	}
	wg.Wait()
	if got, want := coord.Stats().StaleReports, int64(callers*perCaller); got != want {
		t.Errorf("StaleReports = %d, want %d", got, want)
	}
}

// TestLateReportForFinishedJobIsStale: the job stays installed while Run
// collects the reducer files, so a duplicate or re-executed attempt can
// still report after the last task closed job.done. Such a report — here a
// failure, which used to set job.failed under Run's unlocked read and close
// job.done a second time — must be absorbed as stale.
func TestLateReportForFinishedJobIsStale(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	job := &activeJob{
		id:          "1",
		spec:        JobSpec{Name: "late", MapName: "m", ReduceName: "r", NumMapTasks: 1, NumReducers: 1},
		submitted:   time.Now(),
		mapTasks:    newTasks(1),
		reduceTasks: newTasks(1),
		mapsLeft:    1,
		reducesLeft: 1,
		counters:    mapreduce.NewCounters(),
		done:        make(chan struct{}),
	}
	coord.job = job
	rpc := &coordinatorRPC{c: coord}
	report := func(kind TaskKind, errStr string) {
		t.Helper()
		if err := rpc.ReportTask(&TaskReport{WorkerID: "w", JobID: "1", Kind: kind, Err: errStr}, &TaskAck{}); err != nil {
			t.Fatalf("ReportTask: %v", err)
		}
	}
	report(TaskMap, "")
	report(TaskReduce, "")
	select {
	case <-job.done:
	default:
		t.Fatal("job not done after its last task reported")
	}
	stale := coord.Stats().StaleReports
	report(TaskMap, "boom") // panicked: close of closed channel
	if job.failed != nil {
		t.Errorf("a late failure report changed the finished job's result: %v", job.failed)
	}
	if got := coord.Stats().StaleReports; got != stale+1 {
		t.Errorf("StaleReports = %d, want %d", got, stale+1)
	}
}
