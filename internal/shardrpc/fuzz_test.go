package shardrpc

import (
	"bytes"
	"encoding/hex"
	"io"
	"net/rpc"
	"runtime"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/scenario"
	"evmatching/internal/stream"
	"evmatching/internal/wire"
)

// fuzzSeedMsgs is a representative message batch: a valid E observation, a
// V observation with a well-formed patch, a close round, and a snapshot
// request — the full ShardMsgKind surface.
func fuzzSeedMsgs() []stream.ShardMsg {
	patch := &feature.Patch{W: 4, H: 4, Pix: bytes.Repeat([]byte{128}, 16)}
	return []stream.ShardMsg{
		{Pos: 1, Kind: stream.ShardMsgObs, Obs: stream.Observation{
			TS: 10, Kind: stream.KindE, Cell: 3, EID: "e-1", Attr: scenario.AttrInclusive,
		}},
		{Pos: 2, Kind: stream.ShardMsgObs, Obs: stream.Observation{
			TS: 20, Kind: stream.KindV, Cell: 3, VID: "v-1", Person: 1, Patch: patch,
		}},
		{Pos: 3, Kind: stream.ShardMsgClose, Round: 1, Target: 1, MaxTS: 1500},
		{Pos: 4, Kind: stream.ShardMsgSnap},
	}
}

// mustFrame encodes one request frame for the seed corpus.
func mustFrame(seq uint64, method string, body any) []byte {
	var enc FrameEncoder
	frame, err := enc.Encode(seq, ServiceName+"."+method, "", body)
	if err != nil {
		panic(err)
	}
	return append([]byte(nil), frame...)
}

// gobEraRequest is what a supervisor built before the binary wire sends
// first: net/rpc's gob type descriptor of rpc.Request, then a Ping request.
// Read as a frame it is 46 bytes long and speaks "version" 0x7f.
var gobEraRequest, _ = hex.DecodeString("2e7f030101075265717565737401ff80000102010d536572766963654d6574686f64010c000103536571010600000011ff80010c455653686172642e50696e67001eff810301010850696e674172677301ff820001010103536571010400000005ff82010200")

// scriptConn plays a canned byte stream to the server codec and swallows
// what it writes back.
type scriptConn struct{ io.Reader }

func (scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (scriptConn) Close() error                { return nil }

// FuzzShardRPCDecode feeds a hostile byte stream — truncated, duplicated,
// bit-flipped, or arbitrary — through the worker's server codec, frame by
// frame, into Configure/Apply/Ping exactly as net/rpc's serve loop would,
// answering through the codec too. Nothing on this path may panic; errors
// are the contract for bad input. And decoding may not allocate more than a
// small multiple of the input: every length and count on the wire is checked
// against the bytes that are actually there before anything is sized by it.
func FuzzShardRPCDecode(f *testing.F) {
	params := stream.ShardParams{WindowMS: 1_000, Dim: 8, WorkFactor: 1}
	configure := mustFrame(1, "Configure", &ConfigureArgs{
		Shard: 0, Incarnation: 1, Params: params,
		Initial: []stream.ShardBucket{{
			Window: 0, Cell: 3,
			EIDs: []stream.BucketEID{{EID: "e-1", Attr: scenario.Attr(1)}},
			Dets: []scenario.Detection{{VID: "v-1", TruePerson: 1,
				Patch: feature.Patch{W: 4, H: 4, Pix: bytes.Repeat([]byte{127}, 16)}}},
		}},
	})
	apply := mustFrame(2, "Apply", &ApplyArgs{Shard: 0, Incarnation: 1, Msgs: fuzzSeedMsgs()})
	ping := mustFrame(3, "Ping", &PingArgs{Seq: 9})
	valid := bytes.Join([][]byte{configure, apply, ping}, nil)
	f.Add(valid)
	// Truncated at every byte, so at every field boundary of every frame.
	for cut := 0; cut < len(valid); cut++ {
		f.Add(valid[:cut])
	}
	// Duplicated: a redelivered Apply after a lost reply.
	f.Add(bytes.Join([][]byte{configure, apply, apply, ping}, nil))
	// Hostile shapes: a bucket whose patch dimensions lie about the pixel
	// count, which the seal path must reject, not index.
	f.Add(bytes.Join([][]byte{mustFrame(1, "Configure", &ConfigureArgs{
		Shard: 0, Incarnation: 1, Params: params,
		Initial: []stream.ShardBucket{{
			Window: 2, Cell: 9,
			Dets: []scenario.Detection{{VID: "v-x",
				Patch: feature.Patch{W: 1000, H: 1000, Pix: []byte{1, 2, 3}}}},
		}},
	}), apply}, nil))
	// An Apply whose message count is 2^62 with three bytes behind it.
	body := wire.AppendUvarint([]byte{WireVersion, 2, tagApply, 0, 0, 2}, 1<<62)
	f.Add(wire.AppendBytes(nil, append(body, 1, 2, 3)))
	// A frame announcing more than the cap, and one announcing the cap.
	f.Add(wire.AppendUvarint(nil, MaxFrameBytes+1))
	f.Add(append(wire.AppendUvarint(nil, MaxFrameBytes), WireVersion, 1, tagPing))
	// Another build's bytes: a wrong version byte, and a gob-era stream.
	other := append([]byte(nil), ping...)
	other[1] = WireVersion + 1
	f.Add(other)
	f.Add(gobEraRequest)
	// An unknown method tag, and garbage.
	f.Add(wire.AppendBytes(nil, []byte{WireVersion, 4, 77, 0, 1, 2, 3}))
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			return
		}
		codec := newServerCodec(scriptConn{bytes.NewReader(raw)}, io.Discard)
		w := &workerState{}
		var decoded uint64 // bytes allocated while decoding
		measure := func(decode func() error) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
			runtime.ReadMemStats(&after)
			decoded += after.TotalAlloc - before.TotalAlloc
			return err
		}
		for {
			var req rpc.Request
			if measure(func() error { return codec.ReadRequestHeader(&req) }) != nil {
				break // net/rpc hangs up on a header it cannot read
			}
			resp := rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}
			var reply any
			var err error
			switch req.ServiceMethod {
			case ServiceName + ".Configure":
				var args ConfigureArgs
				if err = measure(func() error { return codec.ReadRequestBody(&args) }); err == nil {
					// Clamp the cost knobs: huge WorkFactor/Dim values are
					// slow, not unsafe (extraction cost scales with both),
					// and would stall the fuzzer without exercising any new
					// decode surface.
					args.Params.WorkFactor = min(args.Params.WorkFactor, 4)
					args.Params.Dim = min(args.Params.Dim, 64)
					reply = &ConfigureReply{}
					err = w.Configure(&args, reply.(*ConfigureReply))
				}
			case ServiceName + ".Apply":
				var args ApplyArgs
				if err = measure(func() error { return codec.ReadRequestBody(&args) }); err == nil {
					// Against whatever Configure left behind (possibly
					// nothing), then against a known-good windower under the
					// same identity, twice — redelivery must not panic.
					_ = w.Apply(&args, &ApplyReply{})
					base := ConfigureArgs{Shard: args.Shard, Incarnation: args.Incarnation, Params: params}
					if w.Configure(&base, &ConfigureReply{}) == nil {
						_ = w.Apply(&args, &ApplyReply{})
					}
					reply = &ApplyReply{}
					err = w.Apply(&args, reply.(*ApplyReply))
				}
			case ServiceName + ".Ping":
				var args PingArgs
				if err = measure(func() error { return codec.ReadRequestBody(&args) }); err == nil {
					reply = &PingReply{}
					err = w.Ping(&args, reply.(*PingReply))
				}
			default:
				_ = codec.ReadRequestBody(nil)
				resp.Error = "rpc: can't find method " + req.ServiceMethod
			}
			if err != nil {
				resp.Error = err.Error()
			}
			if err := codec.WriteResponse(&resp, reply); err != nil {
				t.Fatalf("WriteResponse(%s): %v", req.ServiceMethod, err)
			}
		}
		// 128 KiB of fixed reader buffers, then at most ~20x: a decoded
		// struct is larger than its smallest encoding (an empty ShardMsg is
		// 13 bytes on the wire and 128 in memory).
		if decoded > 256<<10+32*uint64(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), decoded)
		}
	})
}
