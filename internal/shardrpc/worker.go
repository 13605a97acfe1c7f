package shardrpc

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"evmatching/internal/stream"
)

// workerState is the rpc receiver a worker process hosts: one shard
// windower at a time, swapped out by Configure. The windower serializes on
// mu — it is not safe for concurrent use and the protocol has a single
// in-flight Apply per supervisor anyway. Identity lives under its own idMu
// so Ping answers while a long Apply holds mu: the supervisor's client arms
// per-I/O deadlines, and heartbeat replies are what keep bytes flowing on a
// healthy connection during a large batch.
type workerState struct {
	mu   sync.Mutex // serializes windower access (Configure/Apply)
	idMu sync.Mutex // guards identity so Ping never blocks behind Apply

	configured  bool
	shard       int
	incarnation int
	wind        *stream.ShardWindower
	steps       atomic.Int64
}

// Configure (rpc) resets the worker to host one shard incarnation.
func (w *workerState) Configure(args *ConfigureArgs, _ *ConfigureReply) error {
	if err := validateIdentity(args.Shard, args.Incarnation); err != nil {
		return err
	}
	wind, err := stream.NewShardWindower(args.Params, nil)
	if err != nil {
		return fmt.Errorf("shardrpc: configure shard %d: %w", args.Shard, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idMu.Lock()
	w.configured = true
	w.shard = args.Shard
	w.incarnation = args.Incarnation
	w.idMu.Unlock()
	w.wind = wind
	w.steps.Store(0)
	return nil
}

// Apply (rpc) steps the windower through a batch of journalled messages and
// returns the emissions. Identity mismatches and invalid messages error
// without panicking; a failed batch leaves the worker reconfigurable.
func (w *workerState) Apply(args *ApplyArgs, reply *ApplyReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idMu.Lock()
	configured, shard, incarnation := w.configured, w.shard, w.incarnation
	w.idMu.Unlock()
	if !configured {
		return fmt.Errorf("shardrpc: apply before configure")
	}
	if args.Shard != shard || args.Incarnation != incarnation {
		return fmt.Errorf("shardrpc: apply for shard %d incarnation %d, hosting shard %d incarnation %d",
			args.Shard, args.Incarnation, shard, incarnation)
	}
	for i := range args.Msgs {
		out, err := w.wind.Step(args.Msgs[i])
		if err != nil {
			return fmt.Errorf("shardrpc: shard %d step %d: %w", shard, w.steps.Load()+1, err)
		}
		w.steps.Add(1)
		if out != nil {
			reply.Outs = append(reply.Outs, *out)
		}
	}
	return nil
}

// Ping (rpc) is the supervisor's liveness probe. It deliberately takes only
// idMu so it answers mid-Apply.
func (w *workerState) Ping(args *PingArgs, reply *PingReply) error {
	w.idMu.Lock()
	defer w.idMu.Unlock()
	reply.Shard = w.shard
	reply.Incarnation = w.incarnation
	reply.Steps = w.steps.Load()
	return nil
}

// Serve accepts rpc connections on lis until it is closed, then waits for
// in-flight connections to drain. It returns nil on a clean listener close.
// stderr, when non-nil, is told about a peer speaking another wire version
// (a supervisor from a different build) before its connection is dropped.
func Serve(lis net.Listener, stderr io.Writer) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, &workerState{}); err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return nil // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeCodec(protocol.ServerCodec(conn, stderr))
		}()
	}
}

// workerGCPercent is the GC target a worker process sets itself unless the
// operator chose one through GOGC. A worker's live heap is one window of
// open buckets — EID sets and journal positions, a few hundred KB — under the
// runtime's 4 MB floor, and each Apply turns over a batch of decoded messages
// and their identifier strings; no pixel reaches a worker any more, so there
// are no arenas to collect. Re-measured on that footing (stream-remote,
// seeds 601–609, order alternated): 200 read ahead of the runtime default in
// 8 pairs of 9, by 1–5 % (medians 129.1 against 131.9 ms), for 8 MB more
// peak RSS across the two workers. Smaller than when a worker turned over
// pixel arenas (176 against 165 ms), but not nothing, so the constant stays
// (DESIGN.md §15).
const workerGCPercent = 200

// WorkerMain is the evshardd entry point, factored here so tests can host a
// worker by re-execing themselves. It binds the listen address, announces
// it on stdout as "listening <addr>", and serves until stdin reaches EOF —
// the supervisor holds the worker's stdin pipe open for its whole life, so
// a dead or detached supervisor takes its orphans down with it.
func WorkerMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evshardd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on (host:port; port 0 picks a free port)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(workerGCPercent)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "evshardd: listen %s: %v\n", *listen, err)
		return 1
	}
	fmt.Fprintf(stdout, "listening %s\n", lis.Addr())
	if f, ok := stdout.(interface{ Sync() error }); ok {
		f.Sync()
	}
	go func() {
		// Orphan watchdog: block until the supervisor end of the stdin pipe
		// closes (supervisor shutdown or death), then stop accepting.
		io.Copy(io.Discard, bufio.NewReader(stdin))
		lis.Close()
	}()
	if err := Serve(lis, stderr); err != nil {
		fmt.Fprintf(stderr, "evshardd: serve: %v\n", err)
		return 1
	}
	return 0
}
