package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"sync"
	"sync/atomic"
)

// This file is the rpc frame every process fleet of the module speaks — the
// cluster's coordinator and workers, the shard supervisor and its evshardd
// workers: an rpc.ClientCodec / rpc.ServerCodec pair under net/rpc, in place
// of its gob codec (DESIGN.md §16). One frame carries one request or one
// response:
//
//	uvarint length | version byte | uvarint seq | method tag | error string | body
//
// length counts everything after itself and is capped by MaxFrameBytes. The
// version byte comes first in every version of every protocol, so either end
// can tell a peer from another build apart from a corrupt stream. A response
// with a non-empty error string has no body. A connection encodes each frame
// whole into one reused buffer and hands it over in one Write (not a
// sync.Pool: a busy collector empties one between two frames), and reads
// through a 64 KiB bufio.Reader into one reused frame buffer — safe because a
// decoded value owns all of its bytes: nothing decoded from a frame points
// into the buffer the next frame overwrites.

// MaxFrameBytes caps a frame's announced length. The reader grows its
// buffer only as bytes arrive (ReadRecord), so this bounds what a legitimate
// peer may send, not what a hostile length prefix can allocate.
const MaxFrameBytes = 1 << 30

// ErrFrameVersion is wrapped by the error a frame reader returns for a
// version byte that is not its protocol's: the peer is from another build.
var ErrFrameVersion = errors.New("both ends must come from the same build")

// Protocol is one rpc protocol carried in frames. Each speaker declares
// exactly one, fixed at build time.
type Protocol struct {
	Name           string // prefixes every error: the speaking package
	Service        string // the net/rpc service name
	Client, Server string // what each end is called in errors
	Version        byte
	// Methods lists the full method names; a method's tag on the wire is
	// its index plus one, tag 0 being "no such method".
	Methods []string
	// Append appends one argument or reply struct; Read decodes one, leaving
	// failures to r. Each reports false for a type outside the protocol.
	Append func(b []byte, body any) ([]byte, bool)
	Read   func(r *Reader, body any) bool
}

func (p *Protocol) tag(serviceMethod string) byte {
	for i, name := range p.Methods {
		if name == serviceMethod {
			return byte(i + 1)
		}
	}
	return 0
}

func (p *Protocol) method(tag byte) string {
	if tag != 0 && int(tag) <= len(p.Methods) {
		return p.Methods[tag-1]
	}
	return fmt.Sprintf("%s.tag%d", p.Service, tag)
}

// readBody decodes the rest of a frame into body, which must consume it
// exactly. A nil body discards it (net/rpc's way of skipping the body of a
// request it cannot dispatch or a response that carries an error).
func (p *Protocol) readBody(r *Reader, body any) error {
	if body == nil {
		return nil
	}
	if !p.Read(r, body) {
		return fmt.Errorf("%s: no wire encoding for %T", p.Name, body)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%s: decode %T: %w", p.Name, body, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%s: decode %T: %w: %d trailing bytes", p.Name, body, ErrCorrupt, r.Len())
	}
	return nil
}

// FrameCounters counts traffic at the frame layer, both directions.
type FrameCounters struct{ Sent, Received, Frames atomic.Int64 }

// FrameEncoder encodes frames into one buffer it keeps and reuses. It is
// not safe for concurrent use.
type FrameEncoder struct {
	p   *Protocol
	buf []byte
}

// Encoder returns a frame encoder for p.
func (p *Protocol) Encoder() *FrameEncoder { return &FrameEncoder{p: p} }

// Encode returns one complete frame — length prefix included — for a request
// or response; body is one of the protocol's argument or reply pointers, or
// nil. The frame aliases the encoder's buffer and is valid until the next
// Encode.
func (e *FrameEncoder) Encode(seq uint64, serviceMethod, errStr string, body any) ([]byte, error) {
	// The length prefix is written last, right-aligned in a reserved
	// maximum-width slot, so the frame is contiguous without a second pass.
	const slot = binary.MaxVarintLen64
	b := append(e.buf[:0], make([]byte, slot)...)
	b = append(b, e.p.Version)
	b = AppendUvarint(b, seq)
	b = append(b, e.p.tag(serviceMethod))
	b = AppendString(b, errStr)
	ok := true
	if body != nil {
		b, ok = e.p.Append(b, body)
	}
	e.buf = b
	if !ok {
		return nil, fmt.Errorf("%s: no wire encoding for %T", e.p.Name, body)
	}
	n := uint64(len(b) - slot)
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%s: %s frame of %d bytes exceeds the %d-byte cap", e.p.Name, serviceMethod, n, uint64(MaxFrameBytes))
	}
	var prefix [slot]byte
	start := slot - binary.PutUvarint(prefix[:], n)
	copy(b[start:], prefix[:slot-start])
	return b[start:], nil
}

// FrameDecoder reads frames into one buffer it keeps and reuses. It is not
// safe for concurrent use.
type FrameDecoder struct {
	p    *Protocol
	br   *bufio.Reader
	peer string
	buf  []byte
	body *Reader // of the frame Next read last
	size int     // its size on the wire, length prefix included
}

// Decoder reads p's frames from r; peer names the sender in a version
// mismatch error.
func (p *Protocol) Decoder(r io.Reader, peer string) *FrameDecoder {
	return &FrameDecoder{p: p, br: bufio.NewReaderSize(r, 64<<10), peer: peer}
}

// Next reads the next frame and returns its header; Body decodes the rest.
func (d *FrameDecoder) Next() (seq uint64, serviceMethod, errStr string, err error) {
	d.body = nil
	frame, err := ReadRecord(d.br, d.buf, MaxFrameBytes)
	if err != nil {
		return 0, "", "", err
	}
	d.buf = frame
	var prefix [binary.MaxVarintLen64]byte
	d.size = binary.PutUvarint(prefix[:], uint64(len(frame))) + len(frame)
	r := NewReader(frame)
	if v := r.Byte(); r.Err() == nil && v != d.p.Version {
		return 0, "", "", fmt.Errorf("%s: %s speaks wire version %d, want %d (%w)", d.p.Name, d.peer, v, d.p.Version, ErrFrameVersion)
	}
	seq = r.Uvarint()
	tag := r.Byte()
	errStr = r.String()
	if err := r.Err(); err != nil {
		return 0, "", "", fmt.Errorf("%s: frame header: %w", d.p.Name, err)
	}
	d.body = r
	return seq, d.p.method(tag), errStr, nil
}

// Body decodes the body of the frame Next returned into v (nil discards
// it). It may be called once per frame.
func (d *FrameDecoder) Body(v any) error {
	r := d.body
	d.body = nil
	if r == nil && v != nil {
		return fmt.Errorf("%s: no frame body to decode", d.p.Name)
	}
	return d.p.readBody(r, v)
}

// frameConn is the state both codec halves share: the connection, its two
// reused buffers, and the traffic counters (nil where nobody reads them).
type frameConn struct {
	conn     io.ReadWriteCloser
	dec      *FrameDecoder
	received int // frames read so far
	counters *FrameCounters

	wmu sync.Mutex // serializes writers: enc's buffer and the one Write
	enc FrameEncoder
}

func (p *Protocol) conn(conn io.ReadWriteCloser, peer string, counters *FrameCounters) *frameConn {
	return &frameConn{conn: conn, dec: p.Decoder(conn, peer), counters: counters, enc: FrameEncoder{p: p}}
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
		c.counters.Sent.Add(int64(n))
		c.counters.Frames.Add(1)
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
		c.counters.Received.Add(int64(c.dec.size))
		c.counters.Frames.Add(1)
	}
	return seq, serviceMethod, errStr, nil
}

func (c *frameConn) Close() error { return c.conn.Close() }

// clientCodec is the calling end's half.
type clientCodec struct{ *frameConn }

// ClientCodec wraps conn for rpc.NewClientWithCodec; counters, when non-nil,
// count its frames.
func (p *Protocol) ClientCodec(conn io.ReadWriteCloser, counters *FrameCounters) rpc.ClientCodec {
	return &clientCodec{p.conn(conn, p.Server, counters)}
}

func (c *clientCodec) WriteRequest(req *rpc.Request, args any) error {
	return c.write(req.Seq, req.ServiceMethod, "", args)
}

func (c *clientCodec) ReadResponseHeader(resp *rpc.Response) error {
	seq, serviceMethod, errStr, err := c.read()
	if err != nil && c.received == 0 && !errors.Is(err, ErrFrameVersion) {
		// A server that cannot parse the first frame just drops the
		// connection — what a build from before the binary frame (gob) does.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		p := c.enc.p
		return fmt.Errorf("%s: %s dropped the connection without answering its first frame (this build speaks wire version %d; is the %s from another build?): %w",
			p.Name, p.Server, p.Version, p.Server, err)
	}
	if err != nil {
		return err
	}
	resp.Seq, resp.ServiceMethod, resp.Error = seq, serviceMethod, errStr
	return nil
}

func (c *clientCodec) ReadResponseBody(reply any) error { return c.dec.Body(reply) }

// serverCodec is the serving end's half. stderr, when non-nil, is told about
// a peer from another build.
type serverCodec struct {
	*frameConn
	stderr io.Writer
}

// ServerCodec wraps conn for rpc.Server.ServeCodec.
func (p *Protocol) ServerCodec(conn io.ReadWriteCloser, stderr io.Writer) rpc.ServerCodec {
	return &serverCodec{frameConn: p.conn(conn, p.Client, nil), stderr: stderr}
}

func (c *serverCodec) ReadRequestHeader(req *rpc.Request) error {
	seq, serviceMethod, _, err := c.read()
	if errors.Is(err, ErrFrameVersion) {
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
