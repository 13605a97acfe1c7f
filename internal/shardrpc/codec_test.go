package shardrpc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"reflect"
	"strings"
	"testing"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/stream"
	"evmatching/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenReply is a small Apply reply with every field of the reply path
// populated: two rounds, one with a closure of one EID and two references,
// one empty.
func goldenReply() *ApplyReply {
	return &ApplyReply{Outs: []stream.ShardOut{
		{Round: 3, Target: 2, MaxTS: 2_400, Sealed: []stream.ShardSealed{{
			Window: 1, Cell: 5,
			EIDs: []scenario.EIDAttr{{EID: "e-1", Attr: scenario.AttrInclusive}},
			Refs: []int64{42, 7},
		}}},
		{Round: 4, Target: 3, MaxTS: 3_400},
	}}
}

// decodeFrame reads one frame into body: Next, then Body unless the frame
// carries an error string, which leaves it no body.
func decodeFrame(d *wire.FrameDecoder, body any) (seq uint64, method, errStr string, err error) {
	if seq, method, errStr, err = d.Next(); err == nil && errStr == "" {
		err = d.Body(body)
	}
	return seq, method, errStr, err
}

// TestGoldenFrame pins the version-4 frame layout: a format change must show
// up as a deliberate diff of testdata/apply_reply_frame.hex (regenerate
// with: go test ./internal/shardrpc/ -run TestGoldenFrame -update) — and as
// a WireVersion bump, or two builds will misread each other silently.
func TestGoldenFrame(t *testing.T) {
	enc := protocol.Encoder()
	frame, err := enc.Encode(7, ServiceName+".Apply", "", goldenReply())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	const path = "testdata/apply_reply_frame.hex"
	if *update {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(frame)+"\n"), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("golden is not hex: %v", err)
	}
	if !bytes.Equal(frame, golden) {
		t.Fatalf("frame bytes changed (format change? bump WireVersion and regenerate with -update)\n got %x\nwant %x", frame, golden)
	}
	var back ApplyReply
	seq, method, errStr, err := decodeFrame(protocol.Decoder(bytes.NewReader(golden), "peer"), &back)
	if err != nil || seq != 7 || method != ServiceName+".Apply" || errStr != "" {
		t.Fatalf("Decode = (%d, %q, %q, %v)", seq, method, errStr, err)
	}
	if !reflect.DeepEqual(&back, goldenReply()) {
		t.Fatalf("decoded reply differs\n got %+v\nwant %+v", back, *goldenReply())
	}
}

// TestDecodedValuesOwnTheirBytes holds the codec's ownership rule: a decoded
// value points into neither the decoder's frame buffer nor the encoder's, so
// both are reused for the next frame. Three different frames go through one
// encoder and one decoder; each decoded value must still be intact after
// the later ones were read over the same storage. A request's observations
// are sent without their patches, so that is how they are expected back.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	sent := fuzzSeedMsgs()
	for i := range sent {
		sent[i].Obs.Patch = nil
	}
	bodies := []any{
		&ApplyArgs{Shard: 1, Incarnation: 2, Msgs: sent},
		goldenReply(),
		&ConfigureArgs{Shard: 1, Incarnation: 3, Params: stream.ShardParams{WindowMS: 1000, Dim: 8, WorkFactor: 1}},
	}
	enc := protocol.Encoder()
	var conn bytes.Buffer
	longest := 0
	for i, body := range bodies {
		frame, err := enc.Encode(uint64(i), ServiceName+".Apply", "", body)
		if err != nil {
			t.Fatalf("Encode %d: %v", i, err)
		}
		conn.Write(frame)
		longest = max(longest, int(wire.NewReader(frame).Uvarint()))
	}
	// Then a frame of 0xAA as long as the longest: the decoder reads it into
	// the storage every earlier frame was read into, which is that long
	// already, before it refuses its version byte.
	conn.Write(wire.AppendBytes(nil, bytes.Repeat([]byte{0xAA}, longest)))
	dec := protocol.Decoder(&conn, "peer")
	got := []any{&ApplyArgs{}, &ApplyReply{}, &ConfigureArgs{}}
	for i := range got {
		if _, _, _, err := decodeFrame(dec, got[i]); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
	}
	if _, _, _, err := dec.Next(); !errors.Is(err, wire.ErrFrameVersion) {
		t.Fatalf("scribble frame: err %v, want a version mismatch", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], bodies[i]) {
			t.Errorf("frame %d changed after later frames reused the buffer\n got %+v\nwant %+v", i, got[i], bodies[i])
		}
	}
}

// BenchmarkApplyReplyFrame prices the wire cost a remote replay pays per
// emission: one frame encode plus decode of a representative ApplyReply — one
// sealed round of four (window, cell) closures, eight EIDs and eight
// detection references each. Encoder and decoder keep their buffers across
// iterations, as a connection's do. wire_bytes is the frame size.
func BenchmarkApplyReplyFrame(b *testing.B) {
	const dets = 8
	sealed := make([]stream.ShardSealed, 4)
	for i := range sealed {
		s := stream.ShardSealed{Window: i, Cell: geo.CellID(3 + i)}
		for j := 0; j < dets; j++ {
			s.EIDs = append(s.EIDs, scenario.EIDAttr{
				EID: ids.EID(fmt.Sprintf("bench-e%02d", j)), Attr: scenario.AttrInclusive,
			})
			s.Refs = append(s.Refs, int64(1_000*(i+1)+37*j))
		}
		sealed[i] = s
	}
	reply := ApplyReply{Outs: []stream.ShardOut{{Round: 1, Target: 1, MaxTS: 1_000, Sealed: sealed}}}
	var (
		enc  = protocol.Encoder()
		conn bytes.Buffer
		size int
	)
	dec := protocol.Decoder(&conn, "worker")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := enc.Encode(uint64(i), ServiceName+".Apply", "", &reply)
		if err != nil {
			b.Fatal(err)
		}
		size = len(frame)
		conn.Write(frame)
		var got ApplyReply
		if _, _, _, err := decodeFrame(dec, &got); err != nil {
			b.Fatal(err)
		}
		if len(got.Outs) != 1 || len(got.Outs[0].Sealed) != len(sealed) {
			b.Fatalf("round trip lost emissions: got %d", len(got.Outs))
		}
	}
	b.ReportMetric(float64(size), "wire_bytes")
}

// TestFrameErrors covers a response carrying an error (no body is read), an
// unknown method name, a body with trailing bytes, and a body type the
// protocol does not have.
func TestFrameErrors(t *testing.T) {
	enc := protocol.Encoder()
	frame, err := enc.Encode(9, ServiceName+".Apply", "shard on fire", &ApplyReply{})
	if err != nil {
		t.Fatal(err)
	}
	var reply ApplyReply
	seq, _, errStr, err := decodeFrame(protocol.Decoder(bytes.NewReader(frame), "peer"), &reply)
	if err != nil || seq != 9 || errStr != "shard on fire" {
		t.Fatalf("error frame: seq %d errStr %q err %v", seq, errStr, err)
	}
	frame, _ = enc.Encode(1, "EVShard.Reticulate", "", nil)
	if _, method, _, err := decodeFrame(protocol.Decoder(bytes.NewReader(frame), "peer"), nil); err != nil || method != "EVShard.tag0" {
		t.Fatalf("unknown method: %q, %v", method, err)
	}
	frame, _ = enc.Encode(1, ServiceName+".Ping", "", &PingReply{Shard: 1, Incarnation: 1, Steps: 5})
	if _, _, _, err := decodeFrame(protocol.Decoder(bytes.NewReader(frame), "peer"), &PingArgs{}); err == nil {
		t.Fatal("a PingReply body decoded as PingArgs with bytes left over")
	}
	if _, err := enc.Encode(1, ServiceName+".Ping", "", struct{}{}); err == nil {
		t.Fatal("Encode accepted a body type outside the protocol")
	}
}

// TestClientReportsWorkerFromAnotherBuild drives the supervisor's half
// against two stale workers: one answering in another wire version, one that
// drops the connection on the first frame (what a gob-era evshardd does with bytes it
// cannot parse). Both calls must fail with an error that names the cause.
func TestClientReportsWorkerFromAnotherBuild(t *testing.T) {
	// A worker one version ahead, the by-value worker of wire version 1, the
	// worker of version 2, which expects a patch in every observation, and
	// the worker of version 3, which expects a lease TTL in Configure.
	for name, version := range map[string]byte{"other-version": WireVersion + 1, "v1-worker": 1, "v2-worker": 2, "v3-worker": 3} {
		t.Run(name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer srv.Close()
			go func() {
				if _, _, _, err := decodeFrame(protocol.Decoder(srv, "supervisor"), nil); err != nil {
					return
				}
				enc := protocol.Encoder()
				frame, _ := enc.Encode(0, ServiceName+".Ping", "", &PingReply{})
				frame[1] = version // the length prefix is one byte here
				srv.Write(frame)
			}()
			client := rpc.NewClientWithCodec(protocol.ClientCodec(cli, nil))
			defer client.Close()
			err := client.Call(ServiceName+".Ping", &PingArgs{}, &PingReply{})
			want := fmt.Sprintf("worker speaks wire version %d, want %d", version, WireVersion)
			if !errors.Is(err, wire.ErrFrameVersion) || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want wire.ErrFrameVersion saying %q", err, want)
			}
		})
	}
	t.Run("drops-the-connection", func(t *testing.T) {
		// Real sockets: the request lands in the kernel's buffer whether or
		// not the peer ever parses it, as it would against a real worker.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			if srv, err := lis.Accept(); err == nil {
				io.CopyN(io.Discard, srv, 1)
				srv.Close()
			}
		}()
		cli, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		client := rpc.NewClientWithCodec(protocol.ClientCodec(cli, nil))
		defer client.Close()
		err = client.Call(ServiceName+".Ping", &PingArgs{}, &PingReply{})
		if err == nil || !strings.Contains(err.Error(), "without answering its first frame") {
			t.Fatalf("err = %v, want the first-frame diagnosis", err)
		}
	})
}
