package shardrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"sync"
	"sync/atomic"

	"evmatching/internal/stream"
	"evmatching/internal/wire"
)

// This file is the shard protocol's wire: a binary rpc.ClientCodec /
// rpc.ServerCodec pair under net/rpc, which keeps what the protocol needs of
// it — sequence numbers, concurrent calls on one connection (Ping answers
// while an Apply runs) — and loses the reflection-driven gob stream
// (DESIGN.md §15).
//
// One frame carries one request or one response:
//
//	uvarint length | version byte | uvarint seq | method tag | error string | body
//
// length counts everything after itself and is capped by MaxFrameBytes. The
// version byte is the first thing after the length in every version of the
// format, past and future, so either end can always tell a peer from another
// build apart from a corrupt stream. The body is the method's argument or
// reply struct, fields in declaration order, in internal/wire's primitives
// and internal/stream's type encoders; a response with a non-empty error
// string has no body.
//
// Writing: a frame is encoded whole into the connection's own encode buffer,
// reused for every frame it sends, and handed to the connection in one
// Write. (Not a sync.Pool: a worker's live heap is a few MB, so it collects
// every few milliseconds, and a pool emptied by the collector between two
// window closes made each large reply grow its buffer from nothing again —
// 7 MB of regrowth per replay.) Reading goes through a 64 KiB bufio.Reader
// into the connection's one frame buffer, reused for every frame it
// receives. That is safe because a decoded value owns all of its bytes
// (stream/codec.go's ownership rule): nothing decoded from a frame points
// into the buffer the next frame overwrites.

// WireVersion is the frame format version this build speaks. Both ends check
// it on every frame; a peer from another build fails its first call with
// ErrWireVersion instead of exchanging undecodable bytes. Version 2 made
// replies by-reference (closures carry journal positions, not detections or
// features) and dropped the sub-checkpoint messages and Configure's image;
// version 3 took the patch out of a request's observations: no pixel travels;
// version 4 took the lease TTL out of Configure's parameters: the shard tier
// has no lease.
const WireVersion = 4

// MaxFrameBytes caps a frame's announced length. The reader grows its
// buffer only as bytes arrive (wire.ReadRecord), so this bounds what a
// legitimate peer may send, not what a hostile length prefix can allocate.
const MaxFrameBytes = 1 << 30

// ErrWireVersion reports a frame whose version byte is not WireVersion: the
// peer is an evshardd (or a supervisor) from a different build.
var ErrWireVersion = errors.New("shardrpc: wire version mismatch")

// wireVersionError is the ErrWireVersion a reader returns, naming the peer
// and the version it spoke.
type wireVersionError struct {
	peer string
	got  byte
}

func (e *wireVersionError) Error() string {
	return fmt.Sprintf("shardrpc: %s speaks wire version %d, want %d (evshardd and its supervisor must come from the same build)",
		e.peer, e.got, WireVersion)
}

func (e *wireVersionError) Is(target error) bool { return target == ErrWireVersion }

// Method tags. Tag 0 is "no such method": what a response to an
// unrecognized request carries.
const (
	tagConfigure byte = iota + 1
	tagApply
	tagPing
)

var methodNames = [...]string{
	tagConfigure: ServiceName + ".Configure",
	tagApply:     ServiceName + ".Apply",
	tagPing:      ServiceName + ".Ping",
}

func methodTag(serviceMethod string) byte {
	for tag, name := range methodNames {
		if tag != 0 && name == serviceMethod {
			return byte(tag)
		}
	}
	return 0
}

func methodName(tag byte) string {
	if int(tag) < len(methodNames) && tag != 0 {
		return methodNames[tag]
	}
	return fmt.Sprintf("%s.tag%d", ServiceName, tag)
}

// wireCounters counts traffic at the frame layer, both directions.
type wireCounters struct {
	sent, received, frames atomic.Int64
}

// appendBody appends a protocol argument or reply struct. nil and the
// body-less ConfigureReply append nothing.
func appendBody(b []byte, body any) ([]byte, error) {
	switch v := body.(type) {
	case nil, *ConfigureReply:
	case *ConfigureArgs:
		b = wire.AppendVarint(b, int64(v.Shard))
		b = wire.AppendVarint(b, int64(v.Incarnation))
		b = wire.AppendVarint(b, v.Params.WindowMS)
		b = wire.AppendVarint(b, int64(v.Params.Dim))
		b = wire.AppendVarint(b, int64(v.Params.WorkFactor))
	case *ApplyArgs:
		b = wire.AppendVarint(b, int64(v.Shard))
		b = wire.AppendVarint(b, int64(v.Incarnation))
		b = stream.AppendShardMsgs(b, v.Msgs)
	case *ApplyReply:
		b = stream.AppendShardOuts(b, v.Outs)
	case *PingArgs:
		b = wire.AppendVarint(b, int64(v.Seq))
	case *PingReply:
		b = wire.AppendVarint(b, int64(v.Shard))
		b = wire.AppendVarint(b, int64(v.Incarnation))
		b = wire.AppendVarint(b, v.Steps)
	default:
		return b, fmt.Errorf("shardrpc: no wire encoding for %T", body)
	}
	return b, nil
}

// readBody decodes the rest of a frame into body, which must be consumed
// exactly. A nil body discards it (net/rpc's way of skipping the body of a
// request it cannot dispatch or a response that carries an error).
func readBody(r *wire.Reader, body any) error {
	switch v := body.(type) {
	case nil:
		return nil
	case *ConfigureReply:
	case *ConfigureArgs:
		v.Shard = r.Int()
		v.Incarnation = r.Int()
		v.Params.WindowMS = r.Varint()
		v.Params.Dim = r.Int()
		v.Params.WorkFactor = r.Int()
	case *ApplyArgs:
		v.Shard = r.Int()
		v.Incarnation = r.Int()
		v.Msgs = stream.ReadShardMsgs(r)
	case *ApplyReply:
		v.Outs = stream.ReadShardOuts(r)
	case *PingArgs:
		v.Seq = r.Int()
	case *PingReply:
		v.Shard = r.Int()
		v.Incarnation = r.Int()
		v.Steps = r.Varint()
	default:
		return fmt.Errorf("shardrpc: no wire encoding for %T", body)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("shardrpc: decode %T: %w", body, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("shardrpc: decode %T: %w: %d trailing bytes", body, wire.ErrCorrupt, r.Len())
	}
	return nil
}

// FrameEncoder encodes frames into one buffer it keeps and reuses. It is
// not safe for concurrent use.
type FrameEncoder struct{ buf []byte }

// Encode returns one complete frame — length prefix included — for a request
// or response; body is one of the protocol's argument or reply pointers, or
// nil. The frame aliases the encoder's buffer and is valid until the next
// Encode.
func (e *FrameEncoder) Encode(seq uint64, serviceMethod, errStr string, body any) ([]byte, error) {
	// The length prefix is written last, right-aligned in a reserved
	// maximum-width slot, so the frame is contiguous without a second pass.
	const slot = binary.MaxVarintLen64
	b := append(e.buf[:0], make([]byte, slot)...)
	b = append(b, WireVersion)
	b = wire.AppendUvarint(b, seq)
	b = append(b, methodTag(serviceMethod))
	b = wire.AppendString(b, errStr)
	b, err := appendBody(b, body)
	e.buf = b
	if err != nil {
		return nil, err
	}
	n := uint64(len(b) - slot)
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("shardrpc: %s frame of %d bytes exceeds the %d-byte cap", serviceMethod, n, uint64(MaxFrameBytes))
	}
	var prefix [slot]byte
	start := slot - binary.PutUvarint(prefix[:], n)
	copy(b[start:], prefix[:slot-start])
	return b[start:], nil
}

// FrameDecoder reads frames into one buffer it keeps and reuses. It is not
// safe for concurrent use.
type FrameDecoder struct {
	br   *bufio.Reader
	peer string
	buf  []byte
	body *wire.Reader // of the frame Next read last
	size int          // its size on the wire, length prefix included
}

// NewFrameDecoder reads frames from r; peer names the sender in a version
// mismatch error.
func NewFrameDecoder(r io.Reader, peer string) *FrameDecoder {
	return &FrameDecoder{br: bufio.NewReaderSize(r, 64<<10), peer: peer}
}

// Next reads the next frame and returns its header; Body decodes the rest.
func (d *FrameDecoder) Next() (seq uint64, serviceMethod, errStr string, err error) {
	d.body = nil
	frame, err := wire.ReadRecord(d.br, d.buf, MaxFrameBytes)
	if err != nil {
		return 0, "", "", err
	}
	d.buf = frame
	var prefix [binary.MaxVarintLen64]byte
	d.size = binary.PutUvarint(prefix[:], uint64(len(frame))) + len(frame)
	r := wire.NewReader(frame)
	if v := r.Byte(); r.Err() == nil && v != WireVersion {
		return 0, "", "", &wireVersionError{peer: d.peer, got: v}
	}
	seq = r.Uvarint()
	tag := r.Byte()
	errStr = r.String()
	if err := r.Err(); err != nil {
		return 0, "", "", fmt.Errorf("shardrpc: frame header: %w", err)
	}
	d.body = r
	return seq, methodName(tag), errStr, nil
}

// Body decodes the body of the frame Next returned into v (nil discards
// it). It may be called once per frame.
func (d *FrameDecoder) Body(v any) error {
	r := d.body
	d.body = nil
	if r == nil && v != nil {
		return errors.New("shardrpc: no frame body to decode")
	}
	return readBody(r, v)
}

// Decode is Next followed by Body; a frame carrying an error string has no
// body to decode.
func (d *FrameDecoder) Decode(body any) (seq uint64, serviceMethod, errStr string, err error) {
	seq, serviceMethod, errStr, err = d.Next()
	if err != nil {
		return 0, "", "", err
	}
	if errStr != "" {
		body = nil
	}
	return seq, serviceMethod, errStr, d.Body(body)
}

// frameConn is the state both codec halves share: the connection, its two
// reused buffers, and the traffic counters (nil on a worker, which
// publishes none).
type frameConn struct {
	conn     io.ReadWriteCloser
	dec      *FrameDecoder
	received int // frames read so far
	counters *wireCounters

	wmu sync.Mutex // serializes writers: enc's buffer and the one Write
	enc FrameEncoder
}

func newFrameConn(conn io.ReadWriteCloser, peer string, counters *wireCounters) *frameConn {
	return &frameConn{conn: conn, dec: NewFrameDecoder(conn, peer), counters: counters}
}

func (c *frameConn) write(seq uint64, serviceMethod, errStr string, body any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame, err := c.enc.Encode(seq, serviceMethod, errStr, body)
	if err != nil {
		return err
	}
	n, err := c.conn.Write(frame)
	if c.counters != nil && n > 0 {
		c.counters.sent.Add(int64(n))
		c.counters.frames.Add(1)
	}
	return err
}

func (c *frameConn) read() (seq uint64, serviceMethod, errStr string, err error) {
	seq, serviceMethod, errStr, err = c.dec.Next()
	if err != nil {
		return 0, "", "", err
	}
	c.received++
	if c.counters != nil {
		c.counters.received.Add(int64(c.dec.size))
		c.counters.frames.Add(1)
	}
	return seq, serviceMethod, errStr, nil
}

func (c *frameConn) Close() error { return c.conn.Close() }

// clientCodec is the supervisor's half.
type clientCodec struct{ *frameConn }

// newClientCodec wraps conn for rpc.NewClientWithCodec.
func newClientCodec(conn io.ReadWriteCloser, counters *wireCounters) rpc.ClientCodec {
	return &clientCodec{newFrameConn(conn, "worker", counters)}
}

func (c *clientCodec) WriteRequest(req *rpc.Request, args any) error {
	return c.write(req.Seq, req.ServiceMethod, "", args)
}

func (c *clientCodec) ReadResponseHeader(resp *rpc.Response) error {
	seq, serviceMethod, errStr, err := c.read()
	if err != nil && c.received == 0 && !errors.Is(err, ErrWireVersion) {
		// A worker that cannot parse the first frame just drops the
		// connection — what a build from before the binary wire (gob) does.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("shardrpc: worker dropped the connection without answering its first frame (this build speaks wire version %d; is evshardd from another build?): %w",
			WireVersion, err)
	}
	if err != nil {
		return err
	}
	resp.Seq, resp.ServiceMethod, resp.Error = seq, serviceMethod, errStr
	return nil
}

func (c *clientCodec) ReadResponseBody(reply any) error { return c.dec.Body(reply) }

// serverCodec is the worker's half. stderr, when non-nil, is told about a
// peer from another build.
type serverCodec struct {
	*frameConn
	stderr io.Writer
}

// newServerCodec wraps conn for rpc.Server.ServeCodec.
func newServerCodec(conn io.ReadWriteCloser, stderr io.Writer) rpc.ServerCodec {
	return &serverCodec{frameConn: newFrameConn(conn, "supervisor", nil), stderr: stderr}
}

func (c *serverCodec) ReadRequestHeader(req *rpc.Request) error {
	seq, serviceMethod, _, err := c.read()
	if errors.Is(err, ErrWireVersion) {
		if c.stderr != nil {
			fmt.Fprintln(c.stderr, err)
		}
		// Answer in this build's framing before net/rpc hangs up: the
		// version byte of the reply is what tells the peer what happened.
		_ = c.write(0, "", err.Error(), nil)
	}
	if err != nil {
		return err
	}
	req.Seq, req.ServiceMethod = seq, serviceMethod
	return nil
}

func (c *serverCodec) ReadRequestBody(args any) error { return c.dec.Body(args) }

func (c *serverCodec) WriteResponse(resp *rpc.Response, reply any) error {
	if resp.Error != "" {
		reply = nil
	}
	return c.write(resp.Seq, resp.ServiceMethod, resp.Error, reply)
}
