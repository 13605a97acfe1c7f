package shardrpc

import (
	"fmt"
	"net"
	"time"
)

// The capped exponential backoff dialConn waits out between attempts while
// the peer is not accepting yet (a worker that has not bound its listener,
// say).
const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// deadlineConn re-arms a read/write deadline before every conn operation,
// so a half-dead TCP peer — SYN-acked but never draining, or gone without a
// FIN — surfaces as an I/O timeout instead of blocking a Call forever.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c deadlineConn) Read(p []byte) (int, error) {
	//evlint:ignore wallclock an I/O deadline bounds a live peer's silence; no replayed value reads it
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	//evlint:ignore wallclock an I/O deadline bounds a live peer's silence; no replayed value reads it
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// dialConn dials a TCP peer with per-operation read/write deadlines and a
// capped exponential backoff across dial attempts.
//
// The deadline applies to connection-level I/O, so it only suits
// connections with steady traffic (the supervisor's heartbeats): an
// idle-but-healthy connection would trip the read deadline once timeout
// passes without a single byte from the peer.
func dialConn(addr string, timeout time.Duration, attempts int) (net.Conn, error) {
	backoff := dialBackoffBase
	var lastErr error
	for i := 0; i < max(attempts, 1); i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff = min(2*backoff, dialBackoffMax)
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		return deadlineConn{Conn: conn, timeout: timeout}, nil
	}
	return nil, fmt.Errorf("shardrpc: dial %s after %d attempts: %w", addr, attempts, lastErr)
}
