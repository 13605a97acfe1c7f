package cluster

import (
	"errors"
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"
)

// pingService is a minimal rpc receiver for the client-seam tests.
type pingService struct{}

type PingArgs struct{ N int }

type PingReply struct{ N int }

func (pingService) Ping(args *PingArgs, reply *PingReply) error {
	reply.N = args.N + 1
	return nil
}

func servePing(t *testing.T) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("PingService", pingService{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		wg.Wait()
	}
}

// dialRPC wraps DialConn in a net/rpc client, as internal/shardrpc wraps it
// in its own codec.
func dialRPC(addr string, timeout time.Duration, attempts int) (*rpc.Client, error) {
	conn, err := DialConn(addr, timeout, attempts)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// TestDialConnRoundTrip proves the deadline-armed connection is a drop-in
// for a live peer: calls complete normally well within the deadline.
func TestDialConnRoundTrip(t *testing.T) {
	addr, stop := servePing(t)
	defer stop()
	client, err := dialRPC(addr, time.Second, 1)
	if err != nil {
		t.Fatalf("DialConn: %v", err)
	}
	defer client.Close()
	var reply PingReply
	if err := client.Call("PingService.Ping", &PingArgs{N: 41}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.N != 42 {
		t.Fatalf("reply = %d, want 42", reply.N)
	}
}

// TestDialConnDeadline: a peer that accepts the connection but never
// answers must fail the call within the deadline instead of blocking it
// forever (the plain rpc.Dial behavior).
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
		t.Fatalf("DialConn: %v", err)
	}
	defer client.Close()
	start := time.Now()
	err = client.Call("PingService.Ping", &PingArgs{N: 1}, &PingReply{})
	if err == nil {
		t.Fatal("Call against a mute peer succeeded; want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 20*timeout {
		t.Fatalf("Call took %v against a mute peer; the deadline should have fired near %v", elapsed, timeout)
	}
}

// TestDialConnBackoffReconnect proves the capped-backoff retry: the listener
// only appears after the first attempts have failed, and DialConn connects
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
	time.Sleep(2 * DefaultDialBackoffBase)
	addr2, stop := servePingAt(t, addr)
	if addr2 == "" {
		t.Skip("could not rebind the probe port; the OS reassigned it")
	}
	defer stop()

	d := <-res
	if d.err != nil {
		t.Fatalf("DialConn never connected after the peer came up: %v", d.err)
	}
	defer d.client.Close()
	var reply PingReply
	if err := d.client.Call("PingService.Ping", &PingArgs{N: 1}, &reply); err != nil {
		t.Fatalf("Call after reconnect: %v", err)
	}
}

// servePingAt is servePing pinned to a specific address; it reports failure
// by returning an empty addr (the port may have been reassigned between the
// probe bind and this one).
func servePingAt(t *testing.T, addr string) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("PingService", pingService{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		wg.Wait()
	}
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
		t.Fatal("DialConn with no peer succeeded; want error")
	} else if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
}
