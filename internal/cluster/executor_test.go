package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/mrtest"
)

// startExecutorCluster boots a coordinator plus n in-process workers sharing
// one registry, returning the adapted Executor.
func startExecutorCluster(t *testing.T, nWorkers int) *Executor {
	t.Helper()
	mrtest.CheckGoroutines(t)
	dir := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := coord.Serve(lis)
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		w, err := NewWorker(addr, WorkerConfig{
			ID:       fmt.Sprintf("exec-w%d", i),
			Dir:      dir,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		_ = coord.Close()
		cancel()
		wg.Wait()
	})
	exec, err := NewExecutor(coord, reg)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func executorWordCountJob(lines []string) *mapreduce.Job {
	input := make([]mapreduce.KeyValue, len(lines))
	for i, l := range lines {
		input[i] = mapreduce.KeyValue{Key: strconv.Itoa(i), Value: l}
	}
	return &mapreduce.Job{
		Name:  "exec-wc",
		Input: input,
		Map: func(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
			for _, w := range strings.Fields(in.Value) {
				emit(mapreduce.KeyValue{Key: w, Value: "1"})
			}
			return nil
		},
		Reduce: func(key string, values []string, emit mapreduce.Emitter) error {
			emit(mapreduce.KeyValue{Key: key, Value: strconv.Itoa(len(values))})
			return nil
		},
		NumReducers: 3,
	}
}

func TestExecutorMatchesSerialSemantics(t *testing.T) {
	lines := []string{"a b a", "c b", "a c c"}
	serial, err := mapreduce.SerialExecutor{}.Run(context.Background(), executorWordCountJob(lines))
	if err != nil {
		t.Fatal(err)
	}
	exec := startExecutorCluster(t, 3)
	dist, err := exec.Run(context.Background(), executorWordCountJob(lines))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Output, serial.Output) {
		t.Errorf("distributed executor output differs:\n%v\n%v", dist.Output, serial.Output)
	}
}

func TestExecutorSequentialJobsGetFreshNames(t *testing.T) {
	exec := startExecutorCluster(t, 2)
	for i := 0; i < 3; i++ {
		res, err := exec.Run(context.Background(), executorWordCountJob([]string{"x x y"}))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want := []mapreduce.KeyValue{{Key: "x", Value: "2"}, {Key: "y", Value: "1"}}
		if !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("job %d output = %v", i, res.Output)
		}
	}
}

func TestExecutorMapOnlyJob(t *testing.T) {
	exec := startExecutorCluster(t, 2)
	job := executorWordCountJob([]string{"b a"})
	job.Reduce = nil
	res, err := exec.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{{Key: "a", Value: "1"}, {Key: "b", Value: "1"}}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(nil, nil); err == nil {
		t.Error("want error for nil inputs")
	}
	exec := startExecutorCluster(t, 1)
	if _, err := exec.Run(context.Background(), &mapreduce.Job{}); err == nil {
		t.Error("want error for invalid job")
	}
}

func TestClusterExecutorConformance(t *testing.T) {
	exec := startExecutorCluster(t, 3)
	mrtest.Conformance(t, exec)
}

func TestExecutorNoFallbackSurfacesErrNoWorkers(t *testing.T) {
	mrtest.CheckGoroutines(t)
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	coord.lease = 100 * time.Millisecond
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve(lis)
	defer coord.Close()
	exec, err := NewExecutor(coord, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(context.Background(), executorWordCountJob([]string{"a"})); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

// registrySize counts every name the registry holds.
func registrySize(r *Registry) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.maps) + len(r.reduces)
}

// TestExecutorUnregistersJobFunctions: a job's closures (which pin its
// partition sets or filter) leave the registry with the job, so a serving
// process that matches forever holds a constant number of names.
func TestExecutorUnregistersJobFunctions(t *testing.T) {
	exec := startExecutorCluster(t, 2)
	jobs := 200
	if testing.Short() {
		jobs = 20
	}
	var after1 int
	for i := 1; i <= jobs; i++ {
		job := executorWordCountJob([]string{"x x y"})
		job.Combine = job.Reduce
		if _, err := exec.Run(context.Background(), job); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i == 1 {
			after1 = registrySize(exec.registry)
		}
	}
	if got := registrySize(exec.registry); got != after1 {
		t.Errorf("registry holds %d names after %d jobs, %d after the first", got, jobs, after1)
	}
	if fresh := registrySize(NewRegistry()); after1 != fresh {
		t.Errorf("registry holds %d names after a job, a fresh one %d", after1, fresh)
	}
}

// TestExecutorStragglerAfterUnregister: an attempt of a finished job that
// only now gets to run cannot resolve the job's names any more. Its failure
// report must be absorbed as stale, not charged to the job running by then.
func TestExecutorStragglerAfterUnregister(t *testing.T) {
	exec := startExecutorCluster(t, 2)
	ctx := context.Background()
	lines := []string{"a b a", "c b", "a c c"}
	want, err := exec.Run(ctx, executorWordCountJob(lines))
	if err != nil {
		t.Fatal(err)
	}

	// Job 2 holds its map phase open until the straggler has reported.
	gate := make(chan struct{})
	job := executorWordCountJob(lines)
	mapFn := job.Map
	job.Map = func(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
		<-gate
		return mapFn(in, emit)
	}
	type result struct {
		res *mapreduce.Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := exec.Run(ctx, job)
		done <- result{res, err}
	}()
	waitFor(t, "started job 2", func() bool {
		exec.coord.mu.Lock()
		defer exec.coord.mu.Unlock()
		return exec.coord.job != nil && exec.coord.job.id == "2"
	})

	straggler, err := NewWorker(exec.coord.lis.Addr().String(), WorkerConfig{
		ID: "straggler", Dir: exec.coord.cfg.Dir, Registry: exec.registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer straggler.client.Close()
	report := straggler.execute(&TaskReply{
		Kind: TaskMap, JobID: "1", TaskID: 0, MapName: "exec.1.exec-wc.map", NumMapTasks: 3, NumReducers: 3,
	})
	if report.Err == "" {
		t.Fatal("job 1's map function still resolves after the job returned")
	}
	stale := exec.Stats().StaleReports
	if err := straggler.client.Call(RPCServiceName+".ReportTask", report, &TaskAck{}); err != nil {
		t.Fatal(err)
	}
	if got := exec.Stats().StaleReports; got != stale+1 {
		t.Errorf("StaleReports = %d after the straggler's report, want %d", got, stale+1)
	}
	close(gate)
	got := <-done
	if got.err != nil {
		t.Fatalf("job 2 failed on job 1's straggler: %v", got.err)
	}
	if !reflect.DeepEqual(got.res.Output, want.Output) {
		t.Errorf("job 2 output = %v, want %v", got.res.Output, want.Output)
	}
}
