package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/rpc"
	"strconv"
	"sync"
	"time"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
)

// Coordinator defaults.
const (
	// DefaultTaskTimeout is the lease after which an unreported task is
	// assumed lost and re-queued for another worker.
	DefaultTaskTimeout = 10 * time.Second
	// DefaultRetryBase is the first re-execution backoff step.
	DefaultRetryBase = 25 * time.Millisecond
	// DefaultRetryMax caps the exponential re-execution backoff.
	DefaultRetryMax = 2 * time.Second
	// RPCServiceName is the registered net/rpc service name.
	RPCServiceName = "EVCoordinator"
)

// ErrCoordinatorClosed reports job submission after Close.
var ErrCoordinatorClosed = errors.New("cluster: coordinator closed")

// ErrTaskFailed reports a deterministic task execution failure: a worker ran
// the job's function and it returned an error. It is distinct from a lost
// worker (which the lease-based retry path re-executes silently); callers
// distinguish the two with errors.Is(err, ErrTaskFailed).
var ErrTaskFailed = errors.New("cluster: task failed")

// ErrNoWorkers reports that the worker pool collapsed: no live worker was
// heard from for the configured PoolTimeout while tasks remained. The
// Executor uses it to degrade gracefully to an in-process engine.
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
	// TaskTimeout is the task lease; 0 means DefaultTaskTimeout.
	TaskTimeout time.Duration
	// HeartbeatTimeout declares a worker dead when nothing has been heard
	// from it for this long; the dead worker's leases are evicted
	// immediately instead of waiting out the full task lease. 0 means
	// 2×TaskTimeout.
	HeartbeatTimeout time.Duration
	// RetryBase and RetryMax bound the capped exponential backoff (with
	// seeded jitter) before a recovered task becomes claimable again.
	// 0 means DefaultRetryBase / DefaultRetryMax.
	RetryBase time.Duration
	RetryMax  time.Duration
	// SpeculativeAfter re-dispatches an in-progress task to a second worker
	// once it has run at least this long and the requester has nothing else
	// to do — the straggler mitigation of speculative execution. 0 means
	// TaskTimeout/2; negative disables speculation.
	SpeculativeAfter time.Duration
	// PoolTimeout fails the running job with ErrNoWorkers when no live
	// worker has been heard from for this long while tasks remain. 0
	// disables collapse detection (the job waits indefinitely for workers).
	PoolTimeout time.Duration
	// Seed drives the retry-backoff jitter; every delay is a pure function
	// of (Seed, job, task, attempt), so recovery timing is reproducible.
	Seed int64
}

type taskState int

const (
	taskIdle taskState = iota + 1
	taskInProgress
	taskCompleted
)

type taskInfo struct {
	state       taskState
	started     time.Time
	worker      string // current primary assignee
	specWorker  string // speculative assignee, "" when none
	specStarted time.Time
	attempts    int       // primary claims so far
	eligible    time.Time // backoff gate: earliest next claim
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
	cfg  CoordinatorConfig
	fsys spill.FS // the shared directory's filesystem; tests swap in a fake

	mu        sync.Mutex
	job       *activeJob
	seq       int
	closed    bool
	workers   map[string]time.Time // live workers by last contact
	lastAlive time.Time            // most recent contact from any worker
	stats     statsCounters

	jobMu sync.Mutex // serializes RunJob callers

	lis     net.Listener
	serveWG sync.WaitGroup
}

// NewCoordinator creates a coordinator writing job files under cfg.Dir.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: coordinator needs a shared directory")
	}
	if cfg.TaskTimeout == 0 {
		cfg.TaskTimeout = DefaultTaskTimeout
	}
	if cfg.TaskTimeout < 0 {
		return nil, fmt.Errorf("cluster: negative task timeout")
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 2 * cfg.TaskTimeout
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.SpeculativeAfter == 0 {
		cfg.SpeculativeAfter = cfg.TaskTimeout / 2
	}
	if cfg.HeartbeatTimeout < 0 || cfg.RetryBase < 0 || cfg.RetryMax < 0 || cfg.PoolTimeout < 0 {
		return nil, fmt.Errorf("cluster: negative coordinator timeout")
	}
	return &Coordinator{cfg: cfg, fsys: spill.OS{}, workers: make(map[string]time.Time)}, nil
}

// Serve starts accepting worker RPC connections on lis until Close. It
// returns the address workers should dial.
func (c *Coordinator) Serve(lis net.Listener) string {
	c.mu.Lock()
	c.lis = lis
	c.mu.Unlock()
	srv := rpc.NewServer()
	// Registration cannot fail: the rpc API is satisfied by construction.
	if err := srv.RegisterName(RPCServiceName, &coordinatorRPC{c: c}); err != nil {
		panic(fmt.Sprintf("cluster: register RPC service: %v", err))
	}
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
				srv.ServeConn(conn)
			}()
		}
	}()
	return lis.Addr().String()
}

// Close stops the coordinator: running workers receive TaskExit on their
// next request, and the RPC listener is shut down.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	lis := c.lis
	c.mu.Unlock()
	if lis != nil {
		return lis.Close()
	}
	return nil
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

	// Split input into map chunks and persist them.
	if spec.NumMapTasks > len(input) && len(input) > 0 {
		spec.NumMapTasks = len(input)
	}
	if len(input) == 0 {
		spec.NumMapTasks = 1
	}
	chunk := (len(input) + spec.NumMapTasks - 1) / spec.NumMapTasks
	if chunk == 0 {
		chunk = 1
	}
	// Whatever happens below, never leave partial job files behind.
	defer func() { _ = removeJobFiles(c.cfg.Dir, jobID) }()
	for m := 0; m < spec.NumMapTasks; m++ {
		lo := m * chunk
		hi := lo + chunk
		if lo > len(input) {
			lo = len(input)
		}
		if hi > len(input) {
			hi = len(input)
		}
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

	// Wait for completion, sweeping periodically so dead workers are
	// detected (and pool collapse declared) even when no worker polls.
	tick := c.cfg.TaskTimeout / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
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

// touchLocked records a sign of life from a worker.
func (c *Coordinator) touchLocked(worker string, now time.Time) {
	if worker == "" {
		return
	}
	c.workers[worker] = now
	if now.After(c.lastAlive) {
		c.lastAlive = now
	}
}

// sweepLocked is the failure detector: it prunes workers silent past the
// heartbeat timeout, evicts their leases (and any lease past the task
// timeout), promotes surviving speculative attempts, and declares pool
// collapse when configured. Called with c.mu held.
func (c *Coordinator) sweepLocked(now time.Time) {
	dead := make(map[string]bool)
	for w, last := range c.workers {
		if now.Sub(last) > c.cfg.HeartbeatTimeout {
			dead[w] = true
		}
	}
	for w := range dead {
		delete(c.workers, w)
		c.stats.deadWorkers.Add(1)
	}
	job := c.job
	if job == nil || job.finished() {
		return
	}
	c.sweepTasksLocked(job, job.mapTasks, dead, now)
	c.sweepTasksLocked(job, job.reduceTasks, dead, now)
	// Pool collapse: no live workers and nothing heard for PoolTimeout.
	if c.cfg.PoolTimeout > 0 && len(c.workers) == 0 {
		ref := c.lastAlive
		if job.submitted.After(ref) {
			ref = job.submitted
		}
		if now.Sub(ref) > c.cfg.PoolTimeout {
			job.failed = fmt.Errorf("%w: silent for %v", ErrNoWorkers, now.Sub(ref).Round(time.Millisecond))
			close(job.done)
		}
	}
}

// sweepTasksLocked evicts lost leases in one task list.
func (c *Coordinator) sweepTasksLocked(job *activeJob, tasks []taskInfo, dead map[string]bool, now time.Time) {
	for i := range tasks {
		t := &tasks[i]
		if t.state != taskInProgress {
			continue
		}
		specAlive := t.specWorker != "" && !dead[t.specWorker] && now.Sub(t.specStarted) <= c.cfg.TaskTimeout
		if dead[t.worker] || now.Sub(t.started) > c.cfg.TaskTimeout {
			c.stats.evictions.Add(1)
			if specAlive {
				// The speculative copy is still healthy: promote it to
				// primary instead of requeueing.
				t.worker, t.started = t.specWorker, t.specStarted
				t.specWorker = ""
				continue
			}
			c.requeueLocked(job, t, i, now)
			continue
		}
		if t.specWorker != "" && !specAlive {
			t.specWorker = "" // drop a dead straggler copy, keep the primary
		}
	}
}

// requeueLocked returns an in-progress task to the idle pool behind a capped
// exponential backoff with seeded jitter.
func (c *Coordinator) requeueLocked(job *activeJob, t *taskInfo, taskID int, now time.Time) {
	t.state = taskIdle
	t.worker, t.specWorker = "", ""
	d := c.cfg.RetryBase
	for i := 1; i < t.attempts && d < c.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	// Jitter in [0.5d, 1.5d), a pure function of (seed, job, task, attempt).
	frac := seededFrac(c.cfg.Seed, job.id, taskID, t.attempts)
	d = d/2 + time.Duration(frac*float64(d))
	t.eligible = now.Add(d)
}

// seededFrac hashes its inputs into a uniform [0, 1) fraction.
func seededFrac(seed int64, jobID string, taskID, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", seed, jobID, taskID, attempt)
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// claimTaskLocked assigns an idle, backoff-eligible task to worker.
func (c *Coordinator) claimTaskLocked(tasks []taskInfo, now time.Time, worker string) (int, bool) {
	for i := range tasks {
		t := &tasks[i]
		if t.state == taskIdle && !t.eligible.After(now) {
			t.state = taskInProgress
			t.started = now
			t.worker = worker
			t.specWorker = ""
			t.attempts++
			if t.attempts > 1 {
				c.stats.retries.Add(1)
			}
			return i, true
		}
	}
	return 0, false
}

// claimSpeculativeLocked hands the oldest qualifying straggler task to a
// second worker. The requester must differ from the primary assignee, and
// the task must have run at least SpeculativeAfter.
func (c *Coordinator) claimSpeculativeLocked(tasks []taskInfo, now time.Time, worker string) (int, bool) {
	if c.cfg.SpeculativeAfter < 0 {
		return 0, false
	}
	best := -1
	for i := range tasks {
		t := &tasks[i]
		if t.state != taskInProgress || t.specWorker != "" || t.worker == worker {
			continue
		}
		if now.Sub(t.started) < c.cfg.SpeculativeAfter {
			continue
		}
		if best < 0 || t.started.Before(tasks[best].started) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	t := &tasks[best]
	t.specWorker = worker
	t.specStarted = now
	c.stats.speculativeDispatches.Add(1)
	return best, true
}

// coordinatorRPC is the net/rpc receiver; kept separate so only the RPC
// surface is exported through the service.
type coordinatorRPC struct {
	c *Coordinator
}

// RequestTask hands the calling worker a task, telling it to wait when all
// remaining tasks are leased, and to exit when the coordinator is closed.
func (r *coordinatorRPC) RequestTask(args *TaskRequest, reply *TaskReply) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		reply.Kind = TaskExit
		return nil
	}
	now := time.Now()
	c.touchLocked(args.WorkerID, now)
	c.sweepLocked(now)
	job := c.job
	if job == nil || job.failed != nil {
		reply.Kind = TaskWait
		return nil
	}
	spec := job.spec
	fill := func(kind TaskKind, id int) {
		reply.Kind = kind
		reply.JobID = job.id
		reply.TaskID = id
		reply.MapName = spec.MapName
		reply.ReduceName = spec.ReduceName
		reply.CombineName = spec.CombineName
		reply.NumMapTasks = spec.NumMapTasks
		reply.NumReducers = spec.NumReducers
	}
	if job.mapsLeft > 0 {
		if id, ok := c.claimTaskLocked(job.mapTasks, now, args.WorkerID); ok {
			fill(TaskMap, id)
			return nil
		}
		if id, ok := c.claimSpeculativeLocked(job.mapTasks, now, args.WorkerID); ok {
			fill(TaskMap, id)
			return nil
		}
		reply.Kind = TaskWait
		return nil
	}
	if job.reducesLeft > 0 {
		if id, ok := c.claimTaskLocked(job.reduceTasks, now, args.WorkerID); ok {
			fill(TaskReduce, id)
			return nil
		}
		if id, ok := c.claimSpeculativeLocked(job.reduceTasks, now, args.WorkerID); ok {
			fill(TaskReduce, id)
			return nil
		}
		reply.Kind = TaskWait
		return nil
	}
	reply.Kind = TaskWait
	return nil
}

// Heartbeat records worker liveness; a worker that stops heartbeating past
// HeartbeatTimeout has its leases evicted without waiting out the lease.
func (r *coordinatorRPC) Heartbeat(args *HeartbeatPing, reply *HeartbeatAck) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(args.WorkerID, time.Now())
	reply.Closed = c.closed
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
	c.touchLocked(args.WorkerID, time.Now())
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
	if t.state == taskInProgress && t.specWorker != "" &&
		args.WorkerID == t.specWorker && args.WorkerID != t.worker {
		c.stats.speculativeWins.Add(1)
	}
	t.state = taskCompleted
	*left--
	for name, v := range args.Counters {
		job.counters.Add(name, v)
	}
	if job.finished() {
		close(job.done)
	}
	return nil
}
