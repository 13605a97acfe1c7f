package shardrpc_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"evmatching/internal/mrtest"
	"evmatching/internal/shardrpc"
	"evmatching/internal/stream"
)

// lockedBuffer is a stderr sink several goroutines (and the exec stderr
// copier) may write to.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// waitFor polls cond for up to two seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// gobEraService stands in for the worker of a build from before the binary
// wire: the same service name, served by net/rpc's default gob codec.
type gobEraService struct{}

func (*gobEraService) Ping(_ *shardrpc.PingArgs, _ *shardrpc.PingReply) error { return nil }

// gobEraWorkerMain is an evshardd from before the binary wire, as far as a
// supervisor can tell: it announces an address, serves gob rpc on it, and
// exits when stdin closes.
func gobEraWorkerMain() int {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 1
	}
	fmt.Printf("listening %s\n", lis.Addr())
	go func() {
		io.Copy(io.Discard, os.Stdin)
		lis.Close()
	}()
	srv := rpc.NewServer()
	if err := srv.RegisterName(shardrpc.ServiceName, &gobEraService{}); err != nil {
		return 1
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return 0
		}
		go srv.ServeConn(conn)
	}
}

// TestServeRejectsOtherBuilds points stale supervisors at a current worker:
// one speaking gob (net/rpc's default client), one sending a frame of the
// next wire version, and one of version 3, whose Configure still carries a
// lease TTL. Each must be refused with the distinct version error on the
// worker's stderr — and, for a peer that can read frames, in the reply —
// instead of a stream of undecodable bytes.
func TestServeRejectsOtherBuilds(t *testing.T) {
	mrtest.CheckGoroutines(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var stderr lockedBuffer
	served := make(chan error, 1)
	go func() { served <- shardrpc.Serve(lis, &stderr) }()
	defer func() {
		lis.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	t.Run("gob-client", func(t *testing.T) {
		client, err := rpc.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if err := client.Call(shardrpc.ServiceName+".Ping", &shardrpc.PingArgs{Seq: 1}, &shardrpc.PingReply{}); err == nil {
			t.Fatal("a gob-speaking client's Ping succeeded against the binary wire")
		}
		// A gob stream's second byte is 0x7f where a frame has its version.
		want := fmt.Sprintf("shardrpc: supervisor speaks wire version 127, want %d", shardrpc.WireVersion)
		if !waitFor(func() bool { return strings.Contains(stderr.String(), want) }) {
			t.Fatalf("worker stderr = %q, want it to contain %q", stderr.String(), want)
		}
	})

	for name, version := range map[string]byte{"next-version-frame": shardrpc.WireVersion + 1, "v3-frame": 3} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var enc shardrpc.FrameEncoder
			frame, err := enc.Encode(1, shardrpc.ServiceName+".Configure", "", &shardrpc.ConfigureArgs{
				Shard: 0, Incarnation: 1, Params: stream.ShardParams{WindowMS: 1_000, Dim: 8, WorkFactor: 1}})
			if err != nil {
				t.Fatal(err)
			}
			frame[1] = version // the length prefix is one byte here
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			// The worker answers once, in its own version, then hangs up.
			dec := shardrpc.NewFrameDecoder(conn, "worker")
			_, _, errStr, err := dec.Decode(nil)
			want := fmt.Sprintf("shardrpc: supervisor speaks wire version %d, want %d", version, shardrpc.WireVersion)
			if err != nil || !strings.Contains(errStr, want) {
				t.Fatalf("reply = (%q, %v), want an error string containing %q", errStr, err, want)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := bufio.NewReader(conn).ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after a version mismatch (err %v)", err)
			}
			if !strings.Contains(stderr.String(), want) {
				t.Fatalf("worker stderr = %q, want it to contain %q", stderr.String(), want)
			}
		})
	}
}

// TestSupervisorFallsBackLoudlyOnStaleWorker is the -shardd-points-at-an-old-
// binary drill: the supervisor spawns a gob-era worker, cannot talk to it,
// and must say why on its stderr while falling back in-process — counted in
// Fallbacks, results unchanged.
func TestSupervisorFallsBackLoudlyOnStaleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	mrtest.CheckGoroutines(t)
	cfg, obs := chaosWorkload(t)
	obs = obs[:len(obs)/4]
	want := unshardedFingerprint(t, cfg, obs)

	var stderr lockedBuffer
	scfg := workerSupervisorConfig(t)
	scfg.Env = []string{workerEnvSentinel + "=gob"}
	scfg.Stderr = &stderr
	sup := shardrpc.NewSupervisor(scfg)
	got := routerFingerprint(t, stream.RouterConfig{Config: cfg, Shards: 2, Runner: sup}, obs)
	st := sup.Stats()
	sup.Close()
	assertWorkersReaped(t, sup)

	if got != want {
		t.Fatalf("replay over a stale worker diverged from unsharded:\n--- unsharded\n%s\n--- fallback\n%s", want, got)
	}
	if st.Fallbacks != 2 || st.Spawned != 2 {
		t.Fatalf("Fallbacks = %d, Spawned = %d; want 2 and 2 (each shard spawns once, then runs in-process)", st.Fallbacks, st.Spawned)
	}
	t.Logf("supervisor stderr:\n%s", stderr.String())
	for _, want := range []string{"runs in-process, no worker", "wire version"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("supervisor stderr = %q, want it to contain %q", stderr.String(), want)
		}
	}
}
