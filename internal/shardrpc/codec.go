package shardrpc

import (
	"evmatching/internal/stream"
	"evmatching/internal/wire"
)

// WireVersion is the frame format version this build speaks. Both ends check
// it on every frame; a peer from another build fails its first call with
// wire.ErrFrameVersion instead of exchanging undecodable bytes. Version 2
// made replies by-reference (closures carry journal positions, not
// detections or features) and dropped the sub-checkpoint messages and
// Configure's image; version 3 took the patch out of a request's
// observations: no pixel travels; version 4 took the lease TTL out of
// Configure's parameters: the shard tier has no lease.
const WireVersion = 4

// protocol is the shard tier's protocol in internal/wire's rpc frame
// (DESIGN.md §16). Its bodies are the argument and reply structs, fields in
// declaration order, in internal/wire's primitives and internal/stream's
// type encoders.
var protocol = &wire.Protocol{Name: "shardrpc", Service: ServiceName, Client: "supervisor", Server: "worker",
	Version: WireVersion, Methods: []string{ServiceName + ".Configure", ServiceName + ".Apply", ServiceName + ".Ping"},
	Append: appendBody, Read: readBody}

// appendBody appends a protocol argument or reply struct; the body-less
// ConfigureReply appends nothing.
func appendBody(b []byte, body any) ([]byte, bool) {
	switch v := body.(type) {
	case *ConfigureReply:
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
		return b, false
	}
	return b, true
}

// readBody decodes a body appendBody wrote.
func readBody(r *wire.Reader, body any) bool {
	switch v := body.(type) {
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
		return false
	}
	return true
}
