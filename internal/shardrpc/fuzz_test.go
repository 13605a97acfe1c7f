package shardrpc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net/rpc"
	"runtime"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/stream"
	"evmatching/internal/wire"
)

// fuzzSeedMsgs is a representative message batch: a valid E observation, a
// V observation (its patch stays behind: the wire carries none), and a close
// round — the full ShardMsgKind surface.
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

// replyLog is the fixed log the reply half of the fuzzer replays before it
// lets a decoded reply loose on the merge stage, one shard, windows of 1 s
// and 250 ms of lateness. Journal positions, close messages included: 1–3 are
// an E and two V observations of windows 0 and 1; 4 closes round 1 on them
// (its close message is 5) and 6, 7, 8 land in window 5, so when Flush issues
// round 2 (position 9, target 6) the journal holds 4, 6, 7 and 8. Cell 3's two
// detections of window 5 arrive in the reverse of their canonical order.
func replyLog() []stream.Observation {
	patch := func(b byte) *feature.Patch { return &feature.Patch{W: 4, H: 4, Pix: bytes.Repeat([]byte{b}, 16)} }
	return []stream.Observation{
		{TS: 10, Kind: stream.KindE, Cell: 3, EID: "e-1", Attr: scenario.AttrInclusive},
		{TS: 20, Kind: stream.KindV, Cell: 3, VID: "v-1", Person: 1, Patch: patch(1)},
		{TS: 1_200, Kind: stream.KindV, Cell: 3, VID: "v-1", Person: 1, Patch: patch(2)},
		{TS: 5_000, Kind: stream.KindE, Cell: 3, EID: "e-9", Attr: scenario.AttrInclusive},
		{TS: 5_100, Kind: stream.KindV, Cell: 4, VID: "v-2", Person: 2, Patch: patch(3)},
		{TS: 5_200, Kind: stream.KindV, Cell: 3, VID: "v-3", Person: 3, Patch: patch(4)},
		{TS: 5_240, Kind: stream.KindV, Cell: 3, VID: "v-0", Person: 0, Patch: patch(5)},
	}
}

// round2 is a reply to replyLog's second close round with the given closures.
func round2(sealed ...stream.ShardSealed) *ApplyReply {
	return &ApplyReply{Outs: []stream.ShardOut{{Round: 2, Target: 6, MaxTS: 5_240, Sealed: sealed}}}
}

// honestRound2 is what a shard replies to replyLog's round 2: each bucket's
// positions in arrival order.
func honestRound2() *ApplyReply {
	return round2(
		stream.ShardSealed{Window: 5, Cell: 3, EIDs: []scenario.EIDAttr{{EID: "e-9", Attr: scenario.AttrInclusive}}, Refs: []int64{7, 8}},
		stream.ShardSealed{Window: 5, Cell: 4, Refs: []int64{6}})
}

// reorderedRound2 is the honest reply with cell 3's positions out of arrival
// order — nothing the journal contradicts, so it folds, and to the scenario
// the honest reply folds to: the fold orders detections, not the shard.
func reorderedRound2() *ApplyReply {
	reply := honestRound2()
	reply.Outs[0].Sealed[0].Refs = []int64{8, 7}
	return reply
}

// hostileRound2 is the hostile-reference battery, each a reply the merge
// stage must refuse whole.
func hostileRound2() map[string]*ApplyReply {
	e9 := []scenario.EIDAttr{{EID: "e-9", Attr: scenario.AttrInclusive}}
	return map[string]*ApplyReply{
		"out-of-range":     round2(stream.ShardSealed{Window: 5, Cell: 3, EIDs: e9, Refs: []int64{99}}),
		"e-observation":    round2(stream.ShardSealed{Window: 5, Cell: 3, EIDs: e9, Refs: []int64{4}}),
		"close-message":    round2(stream.ShardSealed{Window: 5, Cell: 3, EIDs: e9, Refs: []int64{5}}),
		"other-bucket":     round2(stream.ShardSealed{Window: 5, Cell: 3, EIDs: e9, Refs: []int64{6}}),
		"duplicate":        round2(stream.ShardSealed{Window: 5, Cell: 3, EIDs: e9, Refs: []int64{7, 7}}),
		"duplicate-apart":  round2(stream.ShardSealed{Window: 5, Cell: 3, EIDs: e9, Refs: []int64{8, 7, 8}}),
		"across-closures":  round2(stream.ShardSealed{Window: 5, Cell: 3, Refs: []int64{7}}, stream.ShardSealed{Window: 5, Cell: 3, Refs: []int64{7}}),
		"compacted-window": round2(stream.ShardSealed{Window: 0, Cell: 3, Refs: []int64{2}}),
		"unclosed-window":  round2(stream.ShardSealed{Window: 6, Cell: 3}),
		"negative":         round2(stream.ShardSealed{Window: 5, Cell: -4, Refs: []int64{-1}}),
		"round-jump":       {Outs: []stream.ShardOut{{Round: 9, Target: 6}}},
	}
}

// TestHostileReferencesRefused pins what the fuzzer only requires not to
// panic: the honest reply folds, the same positions out of order fold to the
// same state, and every reply of the hostile battery fails the router with
// ErrBadShardReply before anything of it is folded.
func TestHostileReferencesRefused(t *testing.T) {
	honest, err := replyMustFailClosed(t, honestRound2().Outs)
	if err != nil {
		t.Fatalf("the honest reply was refused: %v", err)
	}
	reordered, err := replyMustFailClosed(t, reorderedRound2().Outs)
	if err != nil {
		t.Fatalf("the honest reply with its positions out of order was refused: %v", err)
	}
	if !bytes.Equal(reordered, honest) {
		t.Error("positions out of arrival order folded to a different state")
	}
	for name, reply := range hostileRound2() {
		if _, err := replyMustFailClosed(t, reply.Outs); err == nil {
			t.Errorf("%s: the reply was folded", name)
		}
	}
}

// injectingRunner is an honest in-process shard that, when round 2's close
// message arrives, first emits whatever a fuzzed reply decoded to.
type injectingRunner struct{ outs []stream.ShardOut }

func (ir injectingRunner) RunShard(run stream.ShardRun) {
	w, err := stream.NewShardWindower(run.Params, nil)
	if err != nil {
		return
	}
	for {
		select {
		case <-run.Stop:
			return
		case m := <-run.In:
			out, err := w.Step(m)
			if err != nil {
				run.Died(err)
				return
			}
			if m.Kind == stream.ShardMsgClose && m.Round == 2 {
				for _, hostile := range ir.outs {
					if !run.Emit(hostile) {
						return
					}
				}
			}
			if out != nil && !run.Emit(*out) {
				return
			}
		}
	}
}

// replyMustFailClosed hands decoded reply emissions to a router's merge stage
// through injectingRunner. Whatever they say, the router must not panic or
// hang; it either folds the round (the emissions agreed with the journal, or
// died as duplicates) or fails with ErrBadShardReply having folded nothing
// since the barrier. It returns which, and the checkpoint of what was folded.
func replyMustFailClosed(t *testing.T, outs []stream.ShardOut) ([]byte, error) {
	t.Helper()
	r, err := stream.NewRouter(stream.RouterConfig{
		Config: stream.Config{Targets: []ids.EID{"e-1", "e-9"}, WindowMS: 1_000, LatenessMS: 250, Dim: 8},
		Runner: injectingRunner{outs},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	for i, o := range replyLog() {
		if _, err := r.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := r.Checkpoint(io.Discard); err != nil { // round 1 folded, its windows compacted
		t.Fatalf("Checkpoint: %v", err)
	}
	before := len(r.Resolutions())
	err = r.Flush()
	if err == nil {
		var folded bytes.Buffer
		if err := r.Checkpoint(&folded); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return folded.Bytes(), nil
	}
	if !errors.Is(err, stream.ErrBadShardReply) {
		t.Fatalf("Flush: err = %v, want ErrBadShardReply", err)
	}
	if after := len(r.Resolutions()); after != before {
		t.Fatalf("a refused reply still moved the fold: %d resolutions, %d before it", after, before)
	}
	return nil, err
}

// FuzzShardRPCDecode feeds a hostile byte stream — truncated, duplicated,
// bit-flipped, or arbitrary — through the worker's server codec, frame by
// frame, into Configure/Apply/Ping exactly as net/rpc's serve loop would,
// answering through the codec too. Nothing on this path may panic; errors
// are the contract for bad input. And decoding may not allocate more than a
// small multiple of the input: every length and count on the wire is checked
// against the bytes that are actually there before anything is sized by it.
//
// The same bytes are then read the other way, as the supervisor would read a
// worker's replies, and every Apply reply that decodes is let loose on a
// router's merge stage (replyMustFailClosed): a reply names observations by
// journal position, and a position the journal does not hold, holds as
// something else, or is given twice must be refused whole.
func FuzzShardRPCDecode(f *testing.F) {
	params := stream.ShardParams{WindowMS: 1_000, Dim: 8, WorkFactor: 1}
	configure := mustFrame(1, "Configure", &ConfigureArgs{Shard: 0, Incarnation: 1, Params: params})
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
	// Hostile values: observations Step must reject, not bucket — a
	// detection nobody is named in, and one in a cell that does not exist.
	f.Add(bytes.Join([][]byte{configure, mustFrame(2, "Apply", &ApplyArgs{Shard: 0, Incarnation: 1, Msgs: []stream.ShardMsg{
		{Pos: 1, Kind: stream.ShardMsgObs, Obs: stream.Observation{TS: 20, Kind: stream.KindV, Cell: 9}},
		{Pos: 2, Kind: stream.ShardMsgObs, Obs: stream.Observation{TS: 20, Kind: stream.KindV, Cell: -9, VID: "v-x"}},
		{Pos: 3, Kind: stream.ShardMsgClose, Round: 1, Target: 1},
	}})}, nil))
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
	previous := append([]byte(nil), apply...)
	previous[1] = WireVersion - 1 // the length prefix is one byte here
	f.Add(previous)
	// A version-3 supervisor's Configure, its lease TTL (2 s) after the
	// work factor.
	v3 := []byte{3, 1, tagConfigure, 0}
	for _, v := range []int64{0, 1, 1_000, 8, 1, 2_000_000_000} {
		v3 = wire.AppendVarint(v3, v)
	}
	f.Add(wire.AppendBytes(nil, v3))
	f.Add(gobEraRequest)
	// An unknown method tag, and garbage.
	f.Add(wire.AppendBytes(nil, []byte{WireVersion, 4, 77, 0, 1, 2, 3}))
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})
	// Replies: the honest one to replyLog's round 2, the same with its
	// positions out of order and one naming a position twice, each whole and
	// cut at every byte; the honest one redelivered; and the rest of the
	// hostile-reference battery.
	honest := mustFrame(4, "Apply", honestRound2())
	reordered := mustFrame(4, "Apply", reorderedRound2())
	duplicate := mustFrame(4, "Apply", hostileRound2()["duplicate"])
	for _, frame := range [][]byte{honest, reordered, duplicate} {
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
	}
	f.Add(bytes.Join([][]byte{honest, honest}, nil))
	for _, hostile := range hostileRound2() {
		f.Add(mustFrame(4, "Apply", hostile))
	}

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
		// 12 bytes on the wire and 128 in memory).
		if decoded > 256<<10+32*uint64(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), decoded)
		}

		// The supervisor's half: the same bytes as a stream of replies.
		var outs []stream.ShardOut
		for dec := NewFrameDecoder(bytes.NewReader(raw), "worker"); len(outs) < 8; {
			_, method, errStr, err := dec.Next()
			if err != nil {
				break
			}
			var reply ApplyReply
			if method != ServiceName+".Apply" || errStr != "" || dec.Body(&reply) != nil {
				continue
			}
			outs = append(outs, reply.Outs...)
		}
		if len(outs) > 0 {
			_, _ = replyMustFailClosed(t, outs)
		}
	})
}
