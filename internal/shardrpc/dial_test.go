package shardrpc

import (
	"errors"
	"net"
	"net/rpc"
	"os"
	"sync"
	"testing"
	"time"

	"evmatching/internal/stream"
)

// serveWorkerAt serves the shard protocol on addr ("127.0.0.1:0" picks a
// port); it reports a failed bind by returning an empty addr (a fixed port
// may have been reassigned between a probe bind and this one).
func serveWorkerAt(t *testing.T, addr string) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(lis, nil)
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		<-done
	}
}

// dialRPC wraps dialConn in the supervisor's client codec.
func dialRPC(addr string, timeout time.Duration, attempts int) (*rpc.Client, error) {
	conn, err := dialConn(addr, timeout, attempts)
	if err != nil {
		return nil, err
	}
	return rpc.NewClientWithCodec(protocol.ClientCodec(conn, nil)), nil
}

// configureAndPing hosts shard 3 on the worker behind client and reads it
// back.
func configureAndPing(t *testing.T, client *rpc.Client) {
	t.Helper()
	args := &ConfigureArgs{Shard: 3, Incarnation: 1, Params: stream.ShardParams{WindowMS: 1_000, Dim: 8, WorkFactor: 1}}
	if err := client.Call(ServiceName+".Configure", args, &ConfigureReply{}); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	var reply PingReply
	if err := client.Call(ServiceName+".Ping", &PingArgs{Seq: 1}, &reply); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if reply.Shard != 3 || reply.Incarnation != 1 {
		t.Fatalf("Ping = %+v, want shard 3 incarnation 1", reply)
	}
}

// TestDialConnRoundTrip proves the deadline-armed connection is a drop-in
// for a live peer: calls complete normally well within the deadline.
func TestDialConnRoundTrip(t *testing.T) {
	addr, stop := serveWorkerAt(t, "127.0.0.1:0")
	defer stop()
	client, err := dialRPC(addr, time.Second, 1)
	if err != nil {
		t.Fatalf("dialConn: %v", err)
	}
	defer client.Close()
	configureAndPing(t, client)
}

// TestDialConnDeadline: a peer that accepts the connection but never
// answers must fail the call within the deadline instead of blocking it
// forever (what a plain net.Dial connection does).
func TestDialConnDeadline(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer lis.Close()
	var conns []net.Conn
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn) // hold open, never respond
			mu.Unlock()
		}
	}()
	defer func() {
		lis.Close()
		<-done
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()

	const timeout = 100 * time.Millisecond
	client, err := dialRPC(lis.Addr().String(), timeout, 1)
	if err != nil {
		t.Fatalf("dialConn: %v", err)
	}
	defer client.Close()
	// The verdict is the error, not a stopwatch: the call must fail with the
	// connection's read deadline. The wait is only a guard against a hang,
	// with a hundred deadlines of slack.
	call := client.Go(ServiceName+".Ping", &PingArgs{Seq: 1}, &PingReply{}, nil)
	select {
	case <-call.Done:
	case <-time.After(100 * timeout):
		t.Fatalf("Call against a mute peer still blocked after %v; the %v deadline never fired", 100*timeout, timeout)
	}
	if !errors.Is(call.Error, os.ErrDeadlineExceeded) {
		t.Fatalf("Call against a mute peer: err = %v, want the read deadline's %v", call.Error, os.ErrDeadlineExceeded)
	}
}

// TestDialConnBackoffReconnect proves the capped-backoff retry: the listener
// only appears after the first attempts have failed, and dialConn connects
// once it does.
func TestDialConnBackoffReconnect(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close() // free the port: the first dial attempts must fail

	type dialed struct {
		client *rpc.Client
		err    error
	}
	res := make(chan dialed, 1)
	go func() {
		c, err := dialRPC(addr, time.Second, 20)
		res <- dialed{c, err}
	}()

	// Let at least one attempt fail before the peer comes up.
	time.Sleep(2 * dialBackoffBase)
	addr2, stop := serveWorkerAt(t, addr)
	if addr2 == "" {
		t.Skip("could not rebind the probe port; the OS reassigned it")
	}
	defer stop()

	d := <-res
	if d.err != nil {
		t.Fatalf("dialConn never connected after the peer came up: %v", d.err)
	}
	defer d.client.Close()
	configureAndPing(t, d.client)
}

// TestDialConnExhaustsAttempts proves the failure shape: no peer, bounded
// attempts, a wrapped dial error.
func TestDialConnExhaustsAttempts(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close()
	if _, err := dialRPC(addr, 50*time.Millisecond, 2); err == nil {
		t.Fatal("dialConn with no peer succeeded; want error")
	}
}
