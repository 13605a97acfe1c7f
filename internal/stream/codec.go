package stream

import (
	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// This file is the one binary encoding of every stream data type that
// crosses a boundary — the shard rpc wire (internal/shardrpc frames), the
// checkpoint file (checkpoint.go) and the spill record (spill.go) all call
// the same encode/decode pair per type, so a value has one byte form
// wherever it travels (DESIGN.md §15).
//
// Encoding is total and fixed: every field of a type is written, in
// declaration order, with internal/wire's primitives — ints as zig-zag
// varints, kinds and attributes as one byte, strings and pixel bytes
// length-prefixed, slices as a count followed by the elements, feature
// matrices as one contiguous little-endian float block. There are no maps
// and no optional fields, so equal values encode to equal bytes by
// construction — the property the checkpoint byte-identity tests pin. The one
// field that is not written is an Observation's patch: observations cross
// only the shard wire, to a windower that reads no pixel, so a decoded
// observation has none.
//
// Ownership: a decoded value owns all of its bytes — strings and float
// blocks are copied out of the input as they are read, and the pixels of a
// decoded detection list are moved into one arena of exactly their size that
// the patches share (readDetections). Nothing decoded points into the input,
// so callers read frame after frame, or record after record, into one reused
// buffer.
//
// Decoders read through a sticky-error wire.Reader: they return zero values
// once the input has failed, callers check Reader.Err once per record, and
// every slice count is validated against the remaining input (using the
// element's minimum encoded size below) before the slice is allocated.

// Minimum encoded sizes, in bytes, of one element of each slice type — the
// divisor wire.Reader.Count uses to reject counts the input cannot hold.
const (
	minBucketEIDBytes   = 2                       // empty EID + attr
	minDetectionBytes   = 5                       // empty VID + patch (w, h, empty pix) + person
	minSealedRefsBytes  = 4                       // window, cell, two empty lists
	minObservationBytes = 7                       // every scalar one byte, strings empty
	minShardMsgBytes    = 5 + minObservationBytes // + pos, kind, round, target, maxTS
	minShardOutBytes    = 4                       // round, target, maxTS, an empty list
	minResolutionBytes  = 30                      // five one-byte fields, three floats, a bool
)

func appendSlice[T any](b []byte, s []T, enc func([]byte, *T) []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(s)))
	for i := range s {
		b = enc(b, &s[i])
	}
	return b
}

// readSlice decodes a counted list; an empty list decodes to nil.
func readSlice[T any](r *wire.Reader, minBytes int, dec func(*wire.Reader, *T)) []T {
	n := r.Count(minBytes)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		dec(r, &s[i])
	}
	return s
}

func appendPatch(b []byte, p *feature.Patch) []byte {
	b = wire.AppendVarint(b, int64(p.W))
	b = wire.AppendVarint(b, int64(p.H))
	return wire.AppendBytes(b, p.Pix)
}

// readPatch leaves p.Pix aliasing r's input; readDetections, the list decoder
// above it, moves the pixels out before returning.
func readPatch(r *wire.Reader, p *feature.Patch) {
	p.W = r.Int()
	p.H = r.Int()
	p.Pix = r.Bytes()
}

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

func appendDetection(b []byte, d *scenario.Detection) []byte {
	b = wire.AppendString(b, string(d.VID))
	b = appendPatch(b, &d.Patch)
	return wire.AppendVarint(b, int64(d.TruePerson))
}

func readDetection(r *wire.Reader, d *scenario.Detection) {
	d.VID = ids.VID(r.String())
	readPatch(r, &d.Patch)
	d.TruePerson = r.Int()
}

// readDetections decodes a detection list and moves its pixels, which alias
// the decode buffer, into one arena the patches share and own. The arena is
// exactly the sum of the pixel lengths, each already validated against the
// input, so it is never larger than the input.
func readDetections(r *wire.Reader) []scenario.Detection {
	dets := readSlice(r, minDetectionBytes, readDetection)
	total := 0
	for i := range dets {
		total += len(dets[i].Patch.Pix)
	}
	if total == 0 {
		return dets
	}
	arena := make([]byte, 0, total)
	for i := range dets {
		if p := &dets[i].Patch; len(p.Pix) > 0 {
			off := len(arena)
			arena = append(arena, p.Pix...)
			p.Pix = arena[off:len(arena):len(arena)]
		}
	}
	return dets
}

func appendBucketEID(b []byte, e *BucketEID) []byte {
	b = wire.AppendString(b, string(e.EID))
	return append(b, byte(e.Attr))
}

func readBucketEID(r *wire.Reader, e *BucketEID) {
	e.EID = ids.EID(r.String())
	e.Attr = scenario.Attr(r.Byte())
}

func appendShardBucket(b []byte, sb *ShardBucket) []byte {
	b = wire.AppendVarint(b, int64(sb.Window))
	b = wire.AppendVarint(b, int64(sb.Cell))
	b = appendSlice(b, sb.EIDs, appendBucketEID)
	return appendSlice(b, sb.Dets, appendDetection)
}

func readShardBucket(r *wire.Reader, sb *ShardBucket) {
	sb.Window = r.Int()
	sb.Cell = geo.CellID(r.Int())
	sb.EIDs = readSlice(r, minBucketEIDBytes, readBucketEID)
	sb.Dets = readDetections(r)
}

// appendShardSealed and readShardSealed are the spill record (spill.go): a
// sealed scenario's detections and, when extracted, its feature matrix.
func appendShardSealed(b []byte, s *ShardSealed) []byte {
	b = wire.AppendVarint(b, int64(s.Window))
	b = wire.AppendVarint(b, int64(s.Cell))
	b = appendSlice(b, s.EIDs, appendBucketEID)
	b = appendSlice(b, s.Dets, appendDetection)
	b = wire.AppendVarint(b, int64(s.FeatDim))
	return wire.AppendFloat64s(b, s.Feat)
}

func readShardSealed(r *wire.Reader, s *ShardSealed) {
	s.Window = r.Int()
	s.Cell = geo.CellID(r.Int())
	s.EIDs = readSlice(r, minBucketEIDBytes, readBucketEID)
	s.Dets = readDetections(r)
	s.FeatDim = r.Int()
	s.Feat = r.Float64s()
}

// appendSealedRefs and readSealedRefs are a sealed closure as a shard's reply
// carries it: the bucket, its EID set, and the journal positions of its
// detections — no pixels (the router's journal owns them) and no features
// (the merge stage's filter extracts what SS selects).
func appendSealedRefs(b []byte, s *ShardSealed) []byte {
	b = wire.AppendVarint(b, int64(s.Window))
	b = wire.AppendVarint(b, int64(s.Cell))
	eids := s.EIDs
	if s.eids != nil { // never left the process: flatten now
		eids = sortedBucketEIDs(s.eids)
	}
	b = appendSlice(b, eids, appendBucketEID)
	return appendSlice(b, s.Refs, func(b []byte, pos *int64) []byte { return wire.AppendVarint(b, *pos) })
}

func readSealedRefs(r *wire.Reader, s *ShardSealed) {
	s.Window = r.Int()
	s.Cell = geo.CellID(r.Int())
	s.EIDs = readSlice(r, minBucketEIDBytes, readBucketEID)
	s.Refs = readSlice(r, 1, func(r *wire.Reader, pos *int64) { *pos = r.Varint() })
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
	return appendSlice(b, o.Sealed, appendSealedRefs)
}

func readShardOut(r *wire.Reader, o *ShardOut) {
	o.Round = r.Int()
	o.Target = r.Int()
	o.MaxTS = r.Varint()
	o.Sealed = readSlice(r, minSealedRefsBytes, readSealedRefs)
}

func appendResolution(b []byte, res *Resolution) []byte {
	b = wire.AppendVarint(b, int64(res.Seq))
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
	res.Seq = r.Int()
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
	b = wire.AppendUvarint(b, uint64(len(s)))
	for _, id := range s {
		b = wire.AppendString(b, string(id))
	}
	return b
}

func readIDs[S ~string](r *wire.Reader) []S {
	return readSlice(r, 1, func(r *wire.Reader, id *S) { *id = S(r.String()) })
}

// AppendShardMsgs appends a journalled message batch — the body of a shard
// rpc Apply request — without the observations' patches.
func AppendShardMsgs(b []byte, ms []ShardMsg) []byte { return appendSlice(b, ms, appendShardMsg) }

// ReadShardMsgs decodes a batch written by AppendShardMsgs.
func ReadShardMsgs(r *wire.Reader) []ShardMsg { return readSlice(r, minShardMsgBytes, readShardMsg) }

// AppendShardOuts appends a list of shard emissions — the body of a shard
// rpc Apply reply.
func AppendShardOuts(b []byte, outs []ShardOut) []byte { return appendSlice(b, outs, appendShardOut) }

// ReadShardOuts decodes a list written by AppendShardOuts.
func ReadShardOuts(r *wire.Reader) []ShardOut { return readSlice(r, minShardOutBytes, readShardOut) }
