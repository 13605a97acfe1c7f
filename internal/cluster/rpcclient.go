package cluster

import (
	"fmt"
	"net"
	"net/rpc"
	"time"
)

// Deadline and reconnect knobs for the net/rpc client seam shared by the
// cluster workers and internal/shardrpc's supervisor.
const (
	// DefaultRPCCallTimeout bounds how long a single conn read or write may
	// block. net/rpc parks one reader goroutine in Read for the connection's
	// whole life, so this deadline is re-armed per I/O operation — it bounds
	// peer silence, not call latency. It must comfortably exceed the
	// caller's heartbeat interval: only steady heartbeat traffic keeps the
	// idle reader fed, which is why DialRPC is reserved for connections that
	// carry one.
	DefaultRPCCallTimeout = 10 * time.Second
	// DefaultDialBackoffBase is the first retry delay when the peer is not
	// accepting yet (a worker that has not bound its listener, say).
	DefaultDialBackoffBase = 50 * time.Millisecond
	// DefaultDialBackoffMax caps the exponential dial backoff.
	DefaultDialBackoffMax = 2 * time.Second
)

// deadlineConn re-arms a read/write deadline before every conn operation,
// so a half-dead TCP peer — SYN-acked but never draining, or gone without a
// FIN — surfaces as an I/O timeout instead of blocking a Call forever.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// DialConn dials a TCP peer with per-operation read/write deadlines and a
// capped exponential backoff across dial attempts — the connection seam
// under DialRPC, exposed for callers that speak their own codec over it
// (internal/shardrpc).
//
// The deadline applies to connection-level I/O, so it only suits
// connections with steady traffic (heartbeats): an idle-but-healthy
// connection would trip the read deadline once timeout passes without a
// single byte from the peer.
func DialConn(addr string, timeout time.Duration, attempts int) (net.Conn, error) {
	if timeout <= 0 {
		timeout = DefaultRPCCallTimeout
	}
	if attempts < 1 {
		attempts = 1
	}
	backoff := DefaultDialBackoffBase
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > DefaultDialBackoffMax {
				backoff = DefaultDialBackoffMax
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		return deadlineConn{Conn: conn, timeout: timeout}, nil
	}
	return nil, fmt.Errorf("cluster: dial %s after %d attempts: %w", addr, attempts, lastErr)
}

// DialRPC is DialConn wrapped in a net/rpc client (the default gob codec). A
// timeout poisons the rpc.Client (every pending and future Call errors),
// which is the intended failure mode: the caller treats the peer as dead and
// redials or redispatches rather than blocking a close round indefinitely.
func DialRPC(addr string, timeout time.Duration, attempts int) (*rpc.Client, error) {
	conn, err := DialConn(addr, timeout, attempts)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}
