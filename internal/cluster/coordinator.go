package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strconv"
	"sync"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
)

const (
	// taskLease bounds how long a task may stay in progress on a live
	// connection: a hung task, or a half-open TCP peer whose close never
	// arrives, is requeued once it has held the task this long.
	taskLease = 10 * time.Second
	// RPCServiceName is the registered net/rpc service name.
	RPCServiceName = "EVCoordinator"
)

// ErrCoordinatorClosed reports job submission after Close.
var ErrCoordinatorClosed = errors.New("cluster: coordinator closed")

// ErrTaskFailed reports a deterministic task execution failure: a worker ran
// the job's function and it returned an error. It is distinct from a lost
// worker (whose tasks are re-executed silently); callers distinguish the two
// with errors.Is(err, ErrTaskFailed).
var ErrTaskFailed = errors.New("cluster: task failed")

// ErrNoWorkers reports that the worker pool collapsed: no worker connection
// was open for one task lease while tasks remained.
var ErrNoWorkers = errors.New("cluster: worker pool collapsed")

// JobSpec names the functions and shape of one distributed job. The
// functions must be registered under these names in every worker's Registry.
type JobSpec struct {
	Name        string
	MapName     string
	ReduceName  string // empty selects the identity reduce
	CombineName string // optional
	NumMapTasks int    // input chunks; 0 defaults to 2× reducers
	NumReducers int    // 0 defaults to 4
}

// normalize fills defaults and validates.
func (s *JobSpec) normalize() error {
	if s.MapName == "" {
		return fmt.Errorf("cluster: job %q has no map function", s.Name)
	}
	if s.ReduceName == "" {
		s.ReduceName = IdentityReduceName
	}
	if s.NumReducers <= 0 {
		s.NumReducers = 4
	}
	if s.NumMapTasks <= 0 {
		s.NumMapTasks = 2 * s.NumReducers
	}
	return nil
}

// CoordinatorConfig parameterizes a coordinator.
type CoordinatorConfig struct {
	// Dir is the shared directory for input, intermediate, and output
	// files; every worker must see the same directory.
	Dir string
}

type taskState int

const (
	taskIdle taskState = iota + 1
	taskInProgress
	taskCompleted
)

type taskInfo struct {
	state    taskState
	started  time.Time
	owner    *coordinatorRPC // the connection holding the lease
	attempts int             // claims so far
}

type activeJob struct {
	id          string
	spec        JobSpec
	submitted   time.Time
	mapTasks    []taskInfo
	reduceTasks []taskInfo
	mapsLeft    int
	reducesLeft int
	counters    *mapreduce.Counters
	done        chan struct{}
	failed      error
}

// finished reports whether done is closed: the job failed, or its last task
// completed. From then on nothing may write the job — Run reads it unlocked
// — and done must not be closed again.
func (j *activeJob) finished() bool {
	return j.failed != nil || (j.mapsLeft == 0 && j.reducesLeft == 0)
}

// Coordinator schedules distributed jobs and serves the worker RPC API.
// Create with NewCoordinator, expose with Serve, submit with RunJob.
type Coordinator struct {
	cfg   CoordinatorConfig
	fsys  spill.FS      // the shared directory's filesystem; tests swap in a fake
	lease time.Duration // taskLease; in-package tests shorten it

	mu         sync.Mutex
	job        *activeJob
	seq        int
	closed     bool
	conns      map[*coordinatorRPC]net.Conn // open worker connections
	lastClosed time.Time                    // when a worker connection last closed
	stats      statsCounters

	jobMu sync.Mutex // serializes RunJob callers

	lis     net.Listener
	serveWG sync.WaitGroup
}

// NewCoordinator creates a coordinator writing job files under cfg.Dir.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: coordinator needs a shared directory")
	}
	return &Coordinator{cfg: cfg, fsys: spill.OS{}, lease: taskLease, conns: make(map[*coordinatorRPC]net.Conn)}, nil
}

// Serve starts accepting worker RPC connections on lis until Close. It
// returns the address workers should dial.
func (c *Coordinator) Serve(lis net.Listener) string {
	c.mu.Lock()
	c.lis = lis
	c.mu.Unlock()
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			c.serveWG.Add(1)
			go func() {
				defer c.serveWG.Done()
				c.serveConn(conn)
			}()
		}
	}()
	return lis.Addr().String()
}

// serveConn serves one worker connection on an rpc.Server of its own, whose
// receiver is the connection's identity, in the task protocol's frames: a
// worker from another build is answered once with a version error and
// dropped before it can claim a task. A worker that stops, however it
// stops, closes its connection; every lease claimed over it is then
// requeued at once.
func (c *Coordinator) serveConn(conn net.Conn) {
	r := &coordinatorRPC{c: c}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	c.conns[r] = conn
	c.mu.Unlock()
	srv := rpc.NewServer()
	// Registration cannot fail: the rpc API is satisfied by construction.
	if err := srv.RegisterName(RPCServiceName, r); err != nil {
		panic(fmt.Sprintf("cluster: register RPC service: %v", err))
	}
	srv.ServeCodec(protocol.ServerCodec(conn, nil))

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, r)
	c.lastClosed = time.Now()
	c.evictLocked(func(t *taskInfo) bool { return t.owner == r })
}

// Close stops the coordinator: it shuts the listener, closes every worker
// connection, and waits for their handlers to return.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	lis := c.lis
	for _, conn := range c.conns {
		_ = conn.Close()
	}
	c.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	c.serveWG.Wait()
	return err
}

// RunJob executes one job over the connected workers, blocking until every
// task completes (or ctx is done). Jobs from concurrent callers run one at a
// time.
func (c *Coordinator) RunJob(ctx context.Context, spec JobSpec, input []mapreduce.KeyValue) (*mapreduce.Result, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoordinatorClosed
	}
	c.seq++
	jobID := strconv.Itoa(c.seq)
	c.mu.Unlock()

	// Split input into map chunks — at most one per record, and one even for
	// no input — and persist them.
	spec.NumMapTasks = max(min(spec.NumMapTasks, len(input)), 1)
	chunk := max((len(input)+spec.NumMapTasks-1)/spec.NumMapTasks, 1)
	// Whatever happens below, never leave partial job files behind.
	defer func() { _ = removeJobFiles(c.cfg.Dir, jobID) }()
	for m := 0; m < spec.NumMapTasks; m++ {
		lo, hi := min(m*chunk, len(input)), min((m+1)*chunk, len(input))
		if _, err := spill.WriteRun(c.fsys, inputFile(c.cfg.Dir, jobID, m), input[lo:hi]); err != nil {
			return nil, err
		}
	}

	job := &activeJob{
		id:          jobID,
		spec:        spec,
		submitted:   time.Now(),
		mapTasks:    newTasks(spec.NumMapTasks),
		reduceTasks: newTasks(spec.NumReducers),
		mapsLeft:    spec.NumMapTasks,
		reducesLeft: spec.NumReducers,
		counters:    mapreduce.NewCounters(),
		done:        make(chan struct{}),
	}
	job.counters.Add(mapreduce.CounterMapIn, int64(len(input)))

	c.mu.Lock()
	c.job = job
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.job = nil
		c.mu.Unlock()
	}()

	// Wait for completion, sweeping periodically for expired leases and a
	// pool with no worker connected.
	ticker := time.NewTicker(c.lease / 8)
	defer ticker.Stop()
wait:
	for {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: job %q: %w", spec.Name, ctx.Err())
		case <-job.done:
			break wait
		case <-ticker.C:
			c.mu.Lock()
			c.sweepLocked(time.Now())
			c.mu.Unlock()
		}
	}
	if job.failed != nil {
		return nil, fmt.Errorf("cluster: job %q: %w", spec.Name, job.failed)
	}

	// Collect reducer outputs.
	outs := make([][]mapreduce.KeyValue, spec.NumReducers)
	for r := range outs {
		var err error
		if outs[r], err = spill.ReadRun(c.fsys, outputFile(c.cfg.Dir, jobID, r)); err != nil {
			return nil, fmt.Errorf("cluster: job %q: %w", spec.Name, err)
		}
	}
	if err := removeJobFiles(c.cfg.Dir, jobID); err != nil {
		return nil, err
	}
	return &mapreduce.Result{Output: mapreduce.Gather(outs), Counters: job.counters}, nil
}

func newTasks(n int) []taskInfo {
	ts := make([]taskInfo, n)
	for i := range ts {
		ts[i].state = taskIdle
	}
	return ts
}

// sweepLocked requeues every lease held past the task lease, and fails the
// job with ErrNoWorkers once no worker connection has been open for one
// lease. Called with c.mu held.
func (c *Coordinator) sweepLocked(now time.Time) {
	job := c.job
	if job == nil || job.finished() {
		return
	}
	c.evictLocked(func(t *taskInfo) bool { return now.Sub(t.started) > c.lease })
	if len(c.conns) > 0 {
		return
	}
	ref := c.lastClosed
	if job.submitted.After(ref) {
		ref = job.submitted
	}
	if now.Sub(ref) > c.lease {
		job.failed = fmt.Errorf("%w: none connected for %v", ErrNoWorkers, now.Sub(ref).Round(time.Millisecond))
		close(job.done)
	}
}

// evictLocked returns every in-progress task of the running job for which
// lost reports true to the idle pool, claimable at once. Called with c.mu
// held.
func (c *Coordinator) evictLocked(lost func(t *taskInfo) bool) {
	job := c.job
	if job == nil || job.finished() {
		return
	}
	for _, tasks := range [][]taskInfo{job.mapTasks, job.reduceTasks} {
		for i := range tasks {
			if t := &tasks[i]; t.state == taskInProgress && lost(t) {
				t.state, t.owner = taskIdle, nil
				c.stats.evictions.Add(1)
			}
		}
	}
}

// claimTaskLocked leases the first idle task to the connection owner.
func (c *Coordinator) claimTaskLocked(tasks []taskInfo, owner *coordinatorRPC) (int, bool) {
	for i := range tasks {
		t := &tasks[i]
		if t.state == taskIdle {
			t.state, t.started, t.owner = taskInProgress, time.Now(), owner
			t.attempts++
			if t.attempts > 1 {
				c.stats.retries.Add(1)
			}
			return i, true
		}
	}
	return 0, false
}

// coordinatorRPC is the net/rpc receiver of one worker connection; kept
// separate so only the RPC surface is exported through the service.
type coordinatorRPC struct {
	c *Coordinator
}

// RequestTask leases the calling connection a task, telling the worker to
// wait when all remaining tasks are leased, and to exit when the coordinator
// is closed.
func (r *coordinatorRPC) RequestTask(args *TaskRequest, reply *TaskReply) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		reply.Kind = TaskExit
		return nil
	}
	reply.Kind = TaskWait
	job := c.job
	if job == nil || job.finished() {
		return nil
	}
	kind, tasks := TaskMap, job.mapTasks
	if job.mapsLeft == 0 {
		kind, tasks = TaskReduce, job.reduceTasks
	}
	id, ok := c.claimTaskLocked(tasks, r)
	if !ok {
		return nil
	}
	spec := job.spec
	*reply = TaskReply{
		Kind:        kind,
		JobID:       job.id,
		TaskID:      id,
		MapName:     spec.MapName,
		ReduceName:  spec.ReduceName,
		CombineName: spec.CombineName,
		NumMapTasks: spec.NumMapTasks,
		NumReducers: spec.NumReducers,
	}
	return nil
}

// ReportTask records a worker's task completion. Reports for stale or
// finished jobs, unknown tasks, or already-completed tasks are absorbed
// without failing the coordinator (a re-executed, duplicated, or reordered
// report may arrive any time — c.job stays installed while Run collects the
// reducer files; atomic file renames make the data side harmless).
func (r *coordinatorRPC) ReportTask(args *TaskReport, reply *TaskAck) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	job := c.job
	if job == nil || job.id != args.JobID || job.finished() {
		c.stats.staleReports.Add(1)
		return nil
	}
	var tasks []taskInfo
	var left *int
	switch args.Kind {
	case TaskMap:
		tasks, left = job.mapTasks, &job.mapsLeft
	case TaskReduce:
		tasks, left = job.reduceTasks, &job.reducesLeft
	default:
		c.stats.staleReports.Add(1)
		return fmt.Errorf("cluster: report for %v task", args.Kind)
	}
	if args.TaskID < 0 || args.TaskID >= len(tasks) {
		c.stats.staleReports.Add(1)
		return fmt.Errorf("cluster: report for unknown task %d", args.TaskID)
	}
	if args.Err != "" {
		// Execution failure (not a crash): fail the whole job; losing a
		// worker is recoverable, a deterministic function error is not.
		job.failed = fmt.Errorf("%w: %s", ErrTaskFailed, args.Err)
		close(job.done)
		return nil
	}
	t := &tasks[args.TaskID]
	if t.state == taskCompleted {
		c.stats.staleReports.Add(1)
		return nil
	}
	t.state, t.owner = taskCompleted, nil
	*left--
	for name, v := range args.Counters {
		job.counters.Add(name, v)
	}
	if job.finished() {
		close(job.done)
	}
	return nil
}
