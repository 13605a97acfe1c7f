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
	"evmatching/internal/spill"
)

// newTestRegistry registers word-count functions.
func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.RegisterMap("wc.map", func(in mapreduce.KeyValue, emit mapreduce.Emitter) error {
		for _, w := range strings.Fields(in.Value) {
			emit(mapreduce.KeyValue{Key: w, Value: "1"})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sum := func(key string, values []string, emit mapreduce.Emitter) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			total += n
		}
		emit(mapreduce.KeyValue{Key: key, Value: strconv.Itoa(total)})
		return nil
	}
	if err := reg.RegisterReduce("wc.reduce", sum); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterReduce("wc.combine", sum); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterReduce("boom.reduce", func(string, []string, mapreduce.Emitter) error {
		return fmt.Errorf("deterministic failure")
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// testCluster spins up a coordinator and n workers in-process over real TCP.
type testCluster struct {
	coord   *Coordinator
	addr    string
	dir     string
	reg     *Registry
	fsys    spill.FS // when set, replaces the workers' filesystem
	ctx     context.Context
	workers sync.WaitGroup
	cancel  context.CancelFunc
}

// addWorker starts one more worker against the running cluster.
func (tc *testCluster) addWorker(t *testing.T, wc WorkerConfig) {
	t.Helper()
	wc.Dir = tc.dir
	wc.Registry = tc.reg
	w, err := NewWorker(tc.addr, wc)
	if err != nil {
		t.Fatal(err)
	}
	if tc.fsys != nil {
		w.fsys = tc.fsys
	}
	tc.workers.Add(1)
	go func() {
		defer tc.workers.Done()
		_ = w.Run(tc.ctx)
	}()
}

// startClusterCfg boots a cluster with per-worker config tweaks; a positive
// lease replaces the coordinator's task lease.
func startClusterCfg(t *testing.T, nWorkers int, lease time.Duration, worker func(i int, wc *WorkerConfig)) *testCluster {
	t.Helper()
	mrtest.CheckGoroutines(t)
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if lease > 0 {
		coord.lease = lease
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := coord.Serve(lis)
	ctx, cancel := context.WithCancel(context.Background())
	tc := &testCluster{coord: coord, addr: addr, dir: coord.cfg.Dir, reg: newTestRegistry(t), ctx: ctx, cancel: cancel}
	for i := 0; i < nWorkers; i++ {
		wc := WorkerConfig{ID: fmt.Sprintf("w%d", i)}
		if worker != nil {
			worker(i, &wc)
		}
		// Workers exit when Close shuts their connection, via crash
		// injection, or via context cancellation at test teardown.
		tc.addWorker(t, wc)
	}
	t.Cleanup(func() {
		_ = coord.Close()
		cancel()
		tc.workers.Wait()
	})
	return tc
}

// startCluster starts nWorkers workers; worker i vanishes without a report
// when it claims its crashAfter[i]-th task (0: never).
func startCluster(t *testing.T, nWorkers int, lease time.Duration, crashAfter map[int]int) *testCluster {
	t.Helper()
	return startClusterCfg(t, nWorkers, lease, func(i int, wc *WorkerConfig) {
		if n := crashAfter[i]; n > 0 {
			wc.Faults = &crashAfterPlan{n: n}
		}
	})
}

// crashAfterPlan crashes its one worker as it claims its n-th task, before
// executing it: only the coordinator's eviction recovers the task.
type crashAfterPlan struct{ n, claimed int }

func (p *crashAfterPlan) TaskFault(string, string, TaskKind, int) TaskFault {
	p.claimed++
	return TaskFault{CrashBeforeExecute: p.claimed >= p.n}
}

// waitFor polls cond until it holds, replacing bare sleeps with condition
// polling so slow machines don't flake.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func wordLines(lines []string) []mapreduce.KeyValue {
	input := make([]mapreduce.KeyValue, len(lines))
	for i, l := range lines {
		input[i] = mapreduce.KeyValue{Key: strconv.Itoa(i), Value: l}
	}
	return input
}

func wcSpec() JobSpec {
	return JobSpec{
		Name:        "wordcount",
		MapName:     "wc.map",
		ReduceName:  "wc.reduce",
		NumMapTasks: 6,
		NumReducers: 3,
	}
}

func TestDistributedWordCount(t *testing.T) {
	tc := startCluster(t, 3, time.Minute, nil)
	lines := []string{"a b a", "b c", "a", "c c c", "d a b"}
	res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines(lines))
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{
		{Key: "a", Value: "4"}, {Key: "b", Value: "3"},
		{Key: "c", Value: "4"}, {Key: "d", Value: "1"},
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
	if res.Counters.Get(mapreduce.CounterMapIn) != int64(len(lines)) {
		t.Errorf("map.in = %d", res.Counters.Get(mapreduce.CounterMapIn))
	}
}

func TestDistributedMatchesSerialAndParallel(t *testing.T) {
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%d w%d w%d", i%7, (i*3)%7, (i*5)%7)
	}
	job := &mapreduce.Job{
		Name:  "wc",
		Input: wordLines(lines),
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
	}
	serial, err := mapreduce.SerialExecutor{}.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 4, time.Minute, nil)
	dist, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines(lines))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Output, serial.Output) {
		t.Errorf("distributed output differs from serial:\n%v\n%v", dist.Output, serial.Output)
	}
}

func TestDistributedWithCombiner(t *testing.T) {
	tc := startCluster(t, 2, time.Minute, nil)
	spec := wcSpec()
	spec.CombineName = "wc.combine"
	res, err := tc.coord.RunJob(context.Background(), spec, wordLines([]string{"x x x y", "y x"}))
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{{Key: "x", Value: "4"}, {Key: "y", Value: "2"}}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
	if res.Counters.Get(mapreduce.CounterCombineOut) == 0 {
		t.Error("combiner never ran")
	}
}

func TestWorkerCrashRecovery(t *testing.T) {
	// Worker 0 silently dies before reporting its first task; its closed
	// connection requeues the task and workers 1..2 redo the work.
	tc := startCluster(t, 3, 0, map[int]int{0: 1})
	lines := []string{"a b", "b c", "c a", "a a"}
	res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines(lines))
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{
		{Key: "a", Value: "4"}, {Key: "b", Value: "2"}, {Key: "c", Value: "2"},
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output after crash = %v, want %v", res.Output, want)
	}
}

func TestAllButOneWorkerCrash(t *testing.T) {
	tc := startCluster(t, 3, 0, map[int]int{0: 1, 1: 2})
	res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines([]string{"a b c", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{
		{Key: "a", Value: "2"}, {Key: "b", Value: "1"}, {Key: "c", Value: "1"},
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
}

// runJobAsync submits a job in the background; wait returns its outcome.
func runJobAsync(tc *testCluster, lines []string) (wait func() (*mapreduce.Result, error)) {
	done := make(chan struct{})
	var res *mapreduce.Result
	var err error
	go func() {
		defer close(done)
		res, err = tc.coord.RunJob(context.Background(), wcSpec(), wordLines(lines))
	}()
	return func() (*mapreduce.Result, error) {
		<-done
		return res, err
	}
}

func TestClosedConnectionEvictsLease(t *testing.T) {
	// Worker 0 crashes on its first claim under the full 10 s lease, so only
	// its closed connection can hand the task back in time. It runs alone
	// until the eviction has happened; then a rescuer joins.
	tc := startCluster(t, 1, 0, map[int]int{0: 1})
	start := time.Now()
	wait := runJobAsync(tc, []string{"a b", "b"})
	waitFor(t, "evicted the crashed worker's lease", func() bool { return tc.coord.Stats().Evictions > 0 })
	tc.addWorker(t, WorkerConfig{ID: "rescue"})
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > taskLease/4 {
		t.Errorf("job took %v against a %v lease; the closed connection did not recover the task", elapsed, taskLease)
	}
	want := []mapreduce.KeyValue{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
	if st := tc.coord.Stats(); st.Retries == 0 {
		t.Errorf("evicted task never re-executed: %+v", st)
	}
}

// stallPlan is a FaultPlan stalling every report of one worker.
type stallPlan struct {
	worker string
	delay  time.Duration
}

func (p stallPlan) TaskFault(workerID, _ string, _ TaskKind, _ int) TaskFault {
	if workerID == p.worker {
		return TaskFault{StallBeforeReport: p.delay}
	}
	return TaskFault{}
}

func TestLeaseExpiryRequeuesHungTask(t *testing.T) {
	// Worker 0 hangs on its task with its connection open, so only the
	// (shortened) lease can requeue it. A rescuer joins once it has; the
	// hung worker's report, arriving after the rescuer's, is stale.
	tc := startClusterCfg(t, 1, 50*time.Millisecond, func(i int, wc *WorkerConfig) {
		wc.Faults = stallPlan{worker: "w0", delay: 500 * time.Millisecond}
	})
	wait := runJobAsync(tc, []string{"s t", "t"})
	waitFor(t, "expired the hung task's lease", func() bool { return tc.coord.Stats().Evictions > 0 })
	tc.addWorker(t, WorkerConfig{ID: "rescue"})
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{{Key: "s", Value: "1"}, {Key: "t", Value: "2"}}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
	waitFor(t, "absorbed the hung worker's late report", func() bool { return tc.coord.Stats().StaleReports > 0 })
	if st := tc.coord.Stats(); st.Retries == 0 {
		t.Errorf("expired task never re-executed: %+v", st)
	}
}

// lossyPlan loses every report of one worker — over TCP a report lost while
// the worker lives fails its Call and ends Run, so it is a crash before the
// report — and duplicates every report of another.
type lossyPlan struct {
	dropper, duper string
}

func (p lossyPlan) TaskFault(workerID, _ string, _ TaskKind, _ int) TaskFault {
	switch workerID {
	case p.dropper:
		return TaskFault{CrashBeforeReport: true}
	case p.duper:
		return TaskFault{DuplicateReport: true}
	}
	return TaskFault{}
}

func TestDroppedAndDuplicatedReports(t *testing.T) {
	tc := startClusterCfg(t, 2, 0, func(i int, wc *WorkerConfig) {
		wc.Faults = lossyPlan{dropper: "w0", duper: "w1"}
	})
	res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines([]string{"u v", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{{Key: "u", Value: "1"}, {Key: "v", Value: "2"}}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
	if st := tc.coord.Stats(); st.StaleReports == 0 {
		t.Errorf("duplicated reports never recorded as stale: %+v", st)
	}
}

func TestPoolCollapseFailsWithErrNoWorkers(t *testing.T) {
	// No workers ever connect; after one lease the job must fail rather
	// than hang.
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
	_, err = coord.RunJob(context.Background(), wcSpec(), wordLines([]string{"a"}))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestCloseClosesIdleConnections: a peer that connects and never sends a
// byte must not keep its connection's handler alive past Close.
func TestCloseClosesIdleConnections(t *testing.T) {
	var client net.Conn
	// Registered before the leak check, so it runs after it: the client
	// hangs up only once the check has passed.
	t.Cleanup(func() {
		if client != nil {
			client.Close()
		}
	})
	mrtest.CheckGoroutines(t)
	coord, err := NewCoordinator(CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if client, err = net.Dial("tcp", coord.Serve(lis)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "accepted the connection", func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.conns) == 1
	})
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicFunctionErrorFailsJob(t *testing.T) {
	tc := startCluster(t, 2, time.Minute, nil)
	spec := wcSpec()
	spec.ReduceName = "boom.reduce"
	if _, err := tc.coord.RunJob(context.Background(), spec, wordLines([]string{"a"})); err == nil {
		t.Error("want job failure from reduce error")
	}
}

func TestRunJobContextCancel(t *testing.T) {
	// No workers: the job can never finish; cancellation must unblock.
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
	coord.Serve(lis)
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := coord.RunJob(ctx, wcSpec(), wordLines([]string{"a"})); err == nil {
		t.Error("want context error")
	}
}

func TestSequentialJobs(t *testing.T) {
	tc := startCluster(t, 2, time.Minute, nil)
	for i := 0; i < 3; i++ {
		res, err := tc.coord.RunJob(context.Background(), wcSpec(), wordLines([]string{"q q"}))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if len(res.Output) != 1 || res.Output[0].Value != "2" {
			t.Fatalf("job %d output = %v", i, res.Output)
		}
	}
}

func TestCoordinatorClosedRejectsJobs(t *testing.T) {
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
	coord.Serve(lis)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RunJob(context.Background(), wcSpec(), nil); err == nil {
		t.Error("want ErrCoordinatorClosed")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterMap("", nil); err == nil {
		t.Error("want error for empty registration")
	}
	fn := func(mapreduce.KeyValue, mapreduce.Emitter) error { return nil }
	if err := reg.RegisterMap("m", fn); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterMap("m", fn); err == nil {
		t.Error("want duplicate-registration error")
	}
	if _, err := reg.MapFunc("missing"); err == nil {
		t.Error("want lookup error")
	}
	if _, err := reg.ReduceFunc("missing"); err == nil {
		t.Error("want lookup error")
	}
	if _, err := reg.ReduceFunc(IdentityReduceName); err != nil {
		t.Errorf("identity reduce not pre-registered: %v", err)
	}
}

func TestIdentityReduceDefault(t *testing.T) {
	tc := startCluster(t, 2, time.Minute, nil)
	spec := JobSpec{Name: "maponly", MapName: "wc.map", NumMapTasks: 2, NumReducers: 2}
	res, err := tc.coord.RunJob(context.Background(), spec, wordLines([]string{"b a", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	want := []mapreduce.KeyValue{
		{Key: "a", Value: "1"}, {Key: "a", Value: "1"}, {Key: "b", Value: "1"},
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("Output = %v, want %v", res.Output, want)
	}
}

func TestSpecValidation(t *testing.T) {
	s := JobSpec{}
	if err := s.normalize(); err == nil {
		t.Error("want error for missing map name")
	}
	s = JobSpec{MapName: "m"}
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if s.ReduceName != IdentityReduceName || s.NumReducers != 4 || s.NumMapTasks != 8 {
		t.Errorf("defaults not applied: %+v", s)
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Error("want error for missing dir")
	}
	c, err := NewCoordinator(CoordinatorConfig{Dir: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if c.lease != taskLease {
		t.Errorf("lease = %v, want %v", c.lease, taskLease)
	}
}

func TestNewWorkerValidation(t *testing.T) {
	if _, err := NewWorker("127.0.0.1:1", WorkerConfig{}); err == nil {
		t.Error("want error for missing dir/registry")
	}
	if _, err := NewWorker("127.0.0.1:1", WorkerConfig{Dir: "x", Registry: NewRegistry()}); err == nil {
		t.Error("want dial error against closed port")
	}
}

func TestTaskKindString(t *testing.T) {
	for k, want := range map[TaskKind]string{
		TaskMap: "map", TaskReduce: "reduce", TaskWait: "wait", TaskExit: "exit", TaskKind(0): "invalid",
	} {
		if got := k.String(); got != want {
			t.Errorf("TaskKind(%d) = %q, want %q", k, got, want)
		}
	}
}
