package shardrpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evmatching/internal/stream"
	"evmatching/internal/wire"
)

// Supervisor constants.
const (
	// heartbeatInterval paces the per-worker Ping probes. It must be much
	// shorter than callTimeout: the heartbeat replies are what keep the
	// deadline-armed connection fed while a long Apply runs.
	heartbeatInterval = 100 * time.Millisecond
	// callTimeout bounds peer silence on the worker connection
	// (dialConn: a per-I/O deadline, not per-call).
	callTimeout = 5 * time.Second
	// applyBatch caps how many journalled messages one Apply carries.
	applyBatch = 256
	// maxRestarts bounds worker respawns per shard before the supervisor
	// stops burning processes and falls back in-process.
	maxRestarts = 64
	// spawnAnnounceTimeout bounds the wait for a fresh worker's address line.
	spawnAnnounceTimeout = 10 * time.Second
	// dialAttempts is the capped-backoff dial budget against a fresh worker.
	dialAttempts = 5
)

// errStopped reports that the incarnation's Stop channel closed mid-call.
var errStopped = errors.New("shardrpc: incarnation stopped")

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Command is the worker argv: the evshardd binary plus flags. Required
	// unless every shard is meant to fall back in-process.
	Command []string
	// Env is appended to the inherited environment of each worker.
	Env []string
	// KillPlan, when non-nil, SIGKILLs the shard's worker before the step's
	// message is applied (the chaos tests' seeded and scripted kills).
	// Decisions are pure in (shard, incarnation, step), mirroring
	// stream.ShardFaultPlan.
	KillPlan func(shard, incarnation int, step int64) bool
	// Stderr, when non-nil, receives the workers' stderr.
	Stderr io.Writer
}

// workerProc is one live worker process and its rpc client.
type workerProc struct {
	shard  int
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	client *rpc.Client
	addr   string
	waited chan struct{} // closed once cmd.Wait returns

	downOnce sync.Once
}

// alive reports whether the process has not been waited on yet.
func (p *workerProc) alive() bool {
	select {
	case <-p.waited:
		return false
	default:
		return true
	}
}

// shutdown tears the worker down: client closed, stdin EOF (the worker's
// orphan watchdog), SIGKILL for good measure, then the reaped exit. It is
// idempotent and safe from any goroutine.
func (p *workerProc) shutdown() {
	p.downOnce.Do(func() {
		if p.client != nil {
			p.client.Close()
		}
		if p.stdin != nil {
			p.stdin.Close()
		}
		if p.cmd != nil && p.cmd.Process != nil {
			p.cmd.Process.Kill()
		}
		<-p.waited
	})
}

// Supervisor hosts shard windowers in worker processes: it implements
// stream.ShardRunner by proxying each incarnation's message stream to its
// shard's worker over net/rpc and feeding the emissions back to the
// router's merge stage. Any failed call — an Apply, a heartbeat Ping, or one
// a scripted kill broke — is a worker death, reported to the router through
// ShardRun.Died(nil); the replacement incarnation gets a respawned process
// and rebuilds its state from the router's journal replay. A worker that
// answers an Apply with an error has refused a message: that is reported as
// itself, and fails the stream. When no worker can be had (spawn failure,
// restart budget exhausted, supervisor closed) the shard falls back to
// stream.RunShardInProcess, trading process isolation for availability
// without affecting results.
//
// A Supervisor may serve many shards and many successive incarnations; it
// must be Closed to reap its worker processes.
type Supervisor struct {
	cfg SupervisorConfig

	mu     sync.Mutex
	closed bool
	procs  map[int]*workerProc
	spawns map[int]int // per-shard spawn count, bounds restarts
	pids   []int       // every pid ever spawned (leak checks)

	spawned      atomic.Int64
	kills        atomic.Int64
	retries      atomic.Int64
	redispatches atomic.Int64
	fallbacks    atomic.Int64
	wire         wire.FrameCounters // every worker connection's frames
}

// SupervisorStats is a snapshot of the supervisor's counters.
type SupervisorStats struct {
	// Spawned counts worker processes ever started.
	Spawned int64
	// Kills counts scripted KillPlan SIGKILLs delivered.
	Kills int64
	// Retries counts failed worker calls (Apply or heartbeat).
	Retries int64
	// Redispatches counts worker deaths reported to the router.
	Redispatches int64
	// Fallbacks counts incarnations run in-process for want of a worker.
	Fallbacks int64
	// Live is the number of worker processes currently up.
	Live int
	// WireBytesSent, WireBytesReceived and Frames count the frames (both
	// directions) on every worker connection, length prefixes included.
	WireBytesSent     int64
	WireBytesReceived int64
	Frames            int64
}

// NewSupervisor builds a supervisor; it spawns lazily, one worker per shard
// on the shard's first incarnation.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	return &Supervisor{
		cfg:    cfg,
		procs:  make(map[int]*workerProc),
		spawns: make(map[int]int),
	}
}

// RunShard implements stream.ShardRunner.
func (s *Supervisor) RunShard(run stream.ShardRun) {
	proc, err := s.procFor(run.Shard)
	if err == nil {
		err = s.call(proc, run.Stop, "Configure", &ConfigureArgs{
			Shard:       run.Shard,
			Incarnation: run.Incarnation,
			Params:      run.Params,
		}, &ConfigureReply{})
		if errors.Is(err, errStopped) {
			return
		}
		if err != nil {
			// The worker accepted a connection but cannot host the shard;
			// treat it as dead rather than guess at its state.
			s.retries.Add(1)
			s.removeProc(run.Shard, proc)
		}
	}
	if err != nil {
		s.fallbacks.Add(1)
		if s.cfg.Stderr != nil {
			fmt.Fprintf(s.cfg.Stderr, "shardrpc: shard %d incarnation %d runs in-process, no worker: %v\n", run.Shard, run.Incarnation, err)
		}
		stream.RunShardInProcess(run)
		return
	}
	s.proxyLoop(proc, run)
}

// procFor returns the shard's live worker, spawning (or respawning) one if
// needed. The spawn happens under s.mu so a shard never gets two processes.
func (s *Supervisor) procFor(shard int) (*workerProc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("shardrpc: supervisor closed")
	}
	if p := s.procs[shard]; p != nil {
		if p.alive() {
			return p, nil
		}
		delete(s.procs, shard)
		go p.shutdown() // reap the corpse off the spawn path
	}
	if s.spawns[shard] > maxRestarts {
		return nil, fmt.Errorf("shardrpc: shard %d exhausted %d restarts", shard, maxRestarts)
	}
	p, err := s.spawnLocked(shard)
	if err != nil {
		return nil, err
	}
	s.procs[shard] = p
	return p, nil
}

// spawnLocked starts one worker process and dials it. Callers hold s.mu.
func (s *Supervisor) spawnLocked(shard int) (*workerProc, error) {
	if len(s.cfg.Command) == 0 {
		return nil, errors.New("shardrpc: no worker command configured")
	}
	s.spawns[shard]++
	cmd := exec.Command(s.cfg.Command[0], s.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), s.cfg.Env...)
	if s.cfg.Stderr != nil {
		cmd.Stderr = s.cfg.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shardrpc: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shardrpc: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shardrpc: start worker: %w", err)
	}
	s.spawned.Add(1)
	s.pids = append(s.pids, cmd.Process.Pid)
	waited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(waited)
	}()
	proc := &workerProc{shard: shard, cmd: cmd, stdin: stdin, waited: waited}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "listening "); ok {
				addrCh <- addr
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case proc.addr = <-addrCh:
	case <-waited:
		proc.shutdown()
		return nil, fmt.Errorf("shardrpc: worker for shard %d exited before announcing its address", shard)
	case <-time.After(spawnAnnounceTimeout):
		proc.shutdown()
		return nil, fmt.Errorf("shardrpc: worker for shard %d never announced its address", shard)
	}
	conn, err := dialConn(proc.addr, callTimeout, dialAttempts)
	if err != nil {
		proc.shutdown()
		return nil, fmt.Errorf("shardrpc: dial worker for shard %d: %w", shard, err)
	}
	proc.client = rpc.NewClientWithCodec(protocol.ClientCodec(conn, &s.wire))
	return proc, nil
}

// call runs one rpc against the worker, abandoning the wait (not the
// worker) if the incarnation stops first. The connection's per-I/O deadline
// plus the heartbeat traffic guarantee the call itself cannot hang forever.
func (s *Supervisor) call(proc *workerProc, stop <-chan struct{}, method string, args, reply any) error {
	c := proc.client.Go(ServiceName+"."+method, args, reply, make(chan *rpc.Call, 1))
	select {
	case done := <-c.Done:
		return done.Error
	case <-stop:
		return errStopped
	}
}

// proxyLoop drives one configured incarnation: journal messages batch up
// into Apply calls, emissions flow back to the merge stage, and a heartbeat
// goroutine probes the worker between them. Its exits are Stop, or exactly
// one report through fail: nil for a worker death (the process is torn down
// and the router replaces the incarnation), the worker's error for a message
// it refused.
func (s *Supervisor) proxyLoop(proc *workerProc, run stream.ShardRun) {
	var failOnce sync.Once
	fail := func(refusal error) {
		s.retries.Add(1)
		failOnce.Do(func() {
			if refusal != nil {
				run.Died(refusal)
				return
			}
			// Torn down before the report, so the replacement cannot be
			// handed this process; counted after it, so a reader of Stats
			// never sees a death the router has not been told of.
			s.removeProc(run.Shard, proc)
			run.Died(nil)
			s.redispatches.Add(1)
		})
	}

	var hbWG sync.WaitGroup
	defer hbWG.Wait()
	hbStop := make(chan struct{})
	defer close(hbStop)
	hbWG.Add(1)
	go s.heartbeat(proc, run, hbStop, &hbWG, fail)

	batch := make([]stream.ShardMsg, 0, applyBatch)
	var step int64
	killed := false
	for {
		batch = batch[:0]
		select {
		case <-run.Stop:
			return
		case m := <-run.In:
			batch = append(batch, m)
		}
	drain:
		for len(batch) < applyBatch {
			select {
			case m := <-run.In:
				batch = append(batch, m)
			default:
				break drain
			}
		}
		if s.cfg.KillPlan != nil && !killed {
			for range batch {
				step++
				if s.cfg.KillPlan(run.Shard, run.Incarnation, step) {
					// SIGKILL before the batch lands: the messages die with
					// the process and come back via journal replay.
					if proc.cmd != nil && proc.cmd.Process != nil {
						proc.cmd.Process.Kill()
					}
					s.kills.Add(1)
					killed = true
					break
				}
			}
		}
		var reply ApplyReply
		err := s.call(proc, run.Stop, "Apply", &ApplyArgs{
			Shard:       run.Shard,
			Incarnation: run.Incarnation,
			Msgs:        batch,
		}, &reply)
		if errors.Is(err, errStopped) {
			return
		}
		if err != nil {
			var refused rpc.ServerError
			if !errors.As(err, &refused) {
				err = nil // the call, not the message, failed: a worker death
			}
			fail(err)
			return
		}
		for i := range reply.Outs {
			if !run.Emit(reply.Outs[i]) {
				return
			}
		}
	}
}

// heartbeat probes the worker — the liveness evidence for a remote shard,
// and the traffic that keeps its deadline-armed connection fed while a long
// Apply runs. A failed probe is a worker death, reported at once.
func (s *Supervisor) heartbeat(proc *workerProc, run stream.ShardRun, stop <-chan struct{}, wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	tick := time.NewTicker(heartbeatInterval)
	defer tick.Stop()
	seq := 0
	for {
		select {
		case <-stop:
			return
		case <-run.Stop:
			return
		case <-tick.C:
		}
		seq++
		var reply PingReply
		c := proc.client.Go(ServiceName+".Ping", &PingArgs{Seq: seq}, &reply, make(chan *rpc.Call, 1))
		select {
		case done := <-c.Done:
			if done.Error != nil {
				fail(nil)
				return
			}
		case <-stop:
			return
		case <-run.Stop:
			return
		}
	}
}

// removeProc drops the proc from the table (if still current) and tears it
// down.
func (s *Supervisor) removeProc(shard int, proc *workerProc) {
	s.mu.Lock()
	if s.procs[shard] == proc {
		delete(s.procs, shard)
	}
	s.mu.Unlock()
	proc.shutdown()
}

// Stats snapshots the supervisor's counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	live := len(s.procs)
	s.mu.Unlock()
	return SupervisorStats{
		Spawned:      s.spawned.Load(),
		Kills:        s.kills.Load(),
		Retries:      s.retries.Load(),
		Redispatches: s.redispatches.Load(),
		Fallbacks:    s.fallbacks.Load(),
		Live:         live,

		WireBytesSent:     s.wire.Sent.Load(),
		WireBytesReceived: s.wire.Received.Load(),
		Frames:            s.wire.Frames.Load(),
	}
}

// PIDs returns every worker pid the supervisor ever spawned, in spawn
// order — the leak tests' kill list.
func (s *Supervisor) PIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.pids...)
}

// Close tears down every worker process and marks the supervisor unusable
// for new incarnations (late RunShard calls fall back in-process). It is
// idempotent.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	shards := make([]int, 0, len(s.procs))
	for shard := range s.procs {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	procs := make([]*workerProc, 0, len(shards))
	for _, shard := range shards {
		procs = append(procs, s.procs[shard])
		delete(s.procs, shard)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.shutdown()
	}
	return nil
}
