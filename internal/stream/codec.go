package stream

import (
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// This file is the one binary encoding of every stream data type that
// crosses a boundary — the shard rpc wire (internal/shardrpc frames) and the
// checkpoint file (checkpoint.go) — so a value has one byte form wherever it
// travels (DESIGN.md §15); a scenario is a scenario.Record, the encoding the
// world file and the spill record share. Every field is written in
// declaration order with internal/wire's fixed primitives and no map, so
// equal values encode to equal bytes — the property the checkpoint
// byte-identity tests pin. The one field left out is an Observation's patch:
// observations cross only the shard wire, to a windower that reads no pixel.
// A decoded value owns all of its bytes, so callers decode frame after frame,
// or record after record, from one reused buffer; every slice count is
// checked against the remaining input before the slice is allocated.

// Minimum encoded sizes, in bytes, of one element of each slice type — the
// divisor wire.Reader.Count uses to reject counts the input cannot hold.
const (
	minSealedRefsBytes  = 4                       // window, cell, two empty lists
	minObservationBytes = 7                       // every scalar one byte, strings empty
	minShardMsgBytes    = 5 + minObservationBytes // + pos, kind, round, target, maxTS
	minShardOutBytes    = 4                       // round, target, maxTS, an empty list
	minResolutionBytes  = 29                      // four one-byte fields, three floats, a bool
)

func appendObservation(b []byte, o *Observation) []byte {
	b = wire.AppendVarint(b, o.TS)
	b = append(b, byte(o.Kind))
	b = wire.AppendVarint(b, int64(o.Cell))
	b = wire.AppendString(b, string(o.EID))
	b = append(b, byte(o.Attr))
	b = wire.AppendString(b, string(o.VID))
	return wire.AppendVarint(b, int64(o.Person))
}

func readObservation(r *wire.Reader, o *Observation) {
	o.TS = r.Varint()
	o.Kind = Kind(r.Byte())
	o.Cell = geo.CellID(r.Int())
	o.EID = ids.EID(r.String())
	o.Attr = scenario.Attr(r.Byte())
	o.VID = ids.VID(r.String())
	o.Person = r.Int()
}

// appendSealedRefs and readSealedRefs are a sealed closure as a shard's reply
// carries it: the bucket, its EID set, and the journal positions of its
// detections — no pixels (the router's journal owns them) and no features
// (the merge stage's filter extracts what SS selects).
func appendSealedRefs(b []byte, s *ShardSealed) []byte {
	b = wire.AppendVarint(b, int64(s.Window))
	b = wire.AppendVarint(b, int64(s.Cell))
	b = scenario.AppendEIDAttrs(b, s.EIDs)
	return wire.AppendSlice(b, s.Refs, func(b []byte, pos *int64) []byte { return wire.AppendVarint(b, *pos) })
}

func readSealedRefs(r *wire.Reader, s *ShardSealed) {
	s.Window = r.Int()
	s.Cell = geo.CellID(r.Int())
	s.EIDs = scenario.ReadEIDAttrs(r)
	s.Refs = wire.ReadSlice(r, 1, func(r *wire.Reader, pos *int64) { *pos = r.Varint() })
}

func appendShardMsg(b []byte, m *ShardMsg) []byte {
	b = wire.AppendVarint(b, m.Pos)
	b = append(b, byte(m.Kind))
	b = appendObservation(b, &m.Obs)
	b = wire.AppendVarint(b, int64(m.Round))
	b = wire.AppendVarint(b, int64(m.Target))
	return wire.AppendVarint(b, m.MaxTS)
}

func readShardMsg(r *wire.Reader, m *ShardMsg) {
	m.Pos = r.Varint()
	m.Kind = ShardMsgKind(r.Byte())
	readObservation(r, &m.Obs)
	m.Round = r.Int()
	m.Target = r.Int()
	m.MaxTS = r.Varint()
}

func appendShardOut(b []byte, o *ShardOut) []byte {
	b = wire.AppendVarint(b, int64(o.Round))
	b = wire.AppendVarint(b, int64(o.Target))
	b = wire.AppendVarint(b, o.MaxTS)
	return wire.AppendSlice(b, o.Sealed, appendSealedRefs)
}

func readShardOut(r *wire.Reader, o *ShardOut) {
	o.Round = r.Int()
	o.Target = r.Int()
	o.MaxTS = r.Varint()
	o.Sealed = wire.ReadSlice(r, minSealedRefsBytes, readSealedRefs)
}

// appendResolution and readResolution carry a resolution without its Seq,
// which is its position in the list that carries it.
func appendResolution(b []byte, res *Resolution) []byte {
	b = wire.AppendString(b, string(res.EID))
	b = wire.AppendString(b, string(res.VID))
	b = wire.AppendFloat64(b, res.Probability)
	b = wire.AppendFloat64(b, res.MajorityFrac)
	b = wire.AppendString(b, string(res.RunnerUp))
	b = wire.AppendFloat64(b, res.Margin)
	b = wire.AppendBool(b, res.Acceptable)
	return wire.AppendVarint(b, int64(res.Window))
}

func readResolution(r *wire.Reader, res *Resolution) {
	res.EID = ids.EID(r.String())
	res.VID = ids.VID(r.String())
	res.Probability = r.Float64()
	res.MajorityFrac = r.Float64()
	res.RunnerUp = ids.VID(r.String())
	res.Margin = r.Float64()
	res.Acceptable = r.Bool()
	res.Window = r.Int()
}

// appendIDs and readIDs carry a list of EIDs or VIDs.
func appendIDs[S ~string](b []byte, s []S) []byte {
	return wire.AppendSlice(b, s, func(b []byte, id *S) []byte { return wire.AppendString(b, string(*id)) })
}

func readIDs[S ~string](r *wire.Reader) []S {
	return wire.ReadSlice(r, 1, func(r *wire.Reader, id *S) { *id = S(r.String()) })
}

// AppendShardMsgs appends a journalled message batch — the body of a shard
// rpc Apply request — without the observations' patches.
func AppendShardMsgs(b []byte, ms []ShardMsg) []byte { return wire.AppendSlice(b, ms, appendShardMsg) }

// ReadShardMsgs decodes a batch written by AppendShardMsgs.
func ReadShardMsgs(r *wire.Reader) []ShardMsg {
	return wire.ReadSlice(r, minShardMsgBytes, readShardMsg)
}

// AppendShardOuts appends a list of shard emissions — the body of a shard
// rpc Apply reply.
func AppendShardOuts(b []byte, outs []ShardOut) []byte {
	return wire.AppendSlice(b, outs, appendShardOut)
}

// ReadShardOuts decodes a list written by AppendShardOuts.
func ReadShardOuts(r *wire.Reader) []ShardOut {
	return wire.ReadSlice(r, minShardOutBytes, readShardOut)
}
