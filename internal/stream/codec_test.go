package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// Random values of every wire type. Empty slices are generated as nil — the
// form a decoder returns — so reflect.DeepEqual compares what matters.

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(20))
	rng.Read(b)
	return string(b)
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(1 << 20)
	case 2:
		return rng.Intn(1 << 20)
	}
	return int(rng.Uint64())
}

func randPatch(rng *rand.Rand) feature.Patch {
	p := feature.Patch{W: randInt(rng), H: randInt(rng)}
	if n := rng.Intn(40); n > 0 {
		p.Pix = make([]byte, n)
		rng.Read(p.Pix)
	}
	return p
}

func randSlice[T any](rng *rand.Rand, gen func(*rand.Rand) T) []T {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = gen(rng)
	}
	return s
}

// randObservation is an observation as it comes off the shard wire: without
// a patch.
func randObservation(rng *rand.Rand) Observation {
	return Observation{
		TS: int64(randInt(rng)), Kind: Kind(rng.Intn(4)), Cell: geo.CellID(randInt(rng)),
		EID: ids.EID(randString(rng)), Attr: scenario.Attr(rng.Intn(4)),
		VID: ids.VID(randString(rng)), Person: randInt(rng),
	}
}

func randDetection(rng *rand.Rand) scenario.Detection {
	return scenario.Detection{VID: ids.VID(randString(rng)), Patch: randPatch(rng), TruePerson: randInt(rng)}
}

func randBucketEID(rng *rand.Rand) BucketEID {
	return BucketEID{EID: ids.EID(randString(rng)), Attr: scenario.Attr(rng.Intn(4))}
}

func randShardBucket(rng *rand.Rand) ShardBucket {
	return ShardBucket{
		Window: randInt(rng), Cell: geo.CellID(randInt(rng)),
		EIDs: randSlice(rng, randBucketEID), Dets: randSlice(rng, randDetection),
	}
}

func randShardSealed(rng *rand.Rand) ShardSealed {
	return ShardSealed{
		Window: randInt(rng), Cell: geo.CellID(randInt(rng)),
		EIDs: randSlice(rng, randBucketEID), Dets: randSlice(rng, randDetection),
		FeatDim: randInt(rng), Feat: randSlice(rng, func(rng *rand.Rand) float64 { return rng.NormFloat64() }),
	}
}

// randSealedRefs is a closure as the shard wire carries it.
func randSealedRefs(rng *rand.Rand) ShardSealed {
	return ShardSealed{
		Window: randInt(rng), Cell: geo.CellID(randInt(rng)), EIDs: randSlice(rng, randBucketEID),
		Refs: randSlice(rng, func(rng *rand.Rand) int64 { return int64(randInt(rng)) }),
	}
}

func randShardMsg(rng *rand.Rand) ShardMsg {
	return ShardMsg{
		Pos: int64(randInt(rng)), Kind: ShardMsgKind(rng.Intn(5)), Obs: randObservation(rng),
		Round: randInt(rng), Target: randInt(rng), MaxTS: int64(randInt(rng)),
	}
}

func randShardOut(rng *rand.Rand) ShardOut {
	return ShardOut{
		Round: randInt(rng), Target: randInt(rng), MaxTS: int64(randInt(rng)),
		Sealed: randSlice(rng, randSealedRefs),
	}
}

func randResolution(rng *rand.Rand) Resolution {
	return Resolution{
		Seq: randInt(rng), EID: ids.EID(randString(rng)), VID: ids.VID(randString(rng)),
		Probability: rng.Float64(), MajorityFrac: rng.Float64(), RunnerUp: ids.VID(randString(rng)),
		Margin: rng.NormFloat64(), Acceptable: rng.Intn(2) == 0, Window: randInt(rng),
	}
}

// roundTrip checks decode(encode(x)) == x for one type: the encoding is
// consumed exactly, re-encoding the decoded value reproduces the bytes, every
// strict prefix of it fails cleanly, and the decoded value survives the
// buffer it was decoded from being overwritten.
func roundTrip[T any](t *testing.T, name string, rng *rand.Rand, gen func(*rand.Rand) T, enc func([]byte, *T) []byte, dec func(*wire.Reader, *T)) {
	t.Helper()
	for i := 0; i < 200; i++ {
		want := gen(rng)
		b := enc(nil, &want)
		buf := append([]byte(nil), b...)
		var got T
		r := wire.NewReader(buf)
		dec(r, &got)
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("%s #%d: decode err %v, %d bytes left", name, i, r.Err(), r.Len())
		}
		// Ownership: nothing decoded may point into the decode buffer.
		for j := range buf {
			buf[j] ^= 0xff
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s #%d: round trip changed the value\n got %+v\nwant %+v", name, i, got, want)
		}
		if again := enc(nil, &got); !bytes.Equal(again, b) {
			t.Fatalf("%s #%d: re-encoding the decoded value changed the bytes", name, i)
		}
		for cut := 0; cut < len(b); cut++ {
			var v T
			r := wire.NewReader(b[:cut])
			dec(r, &v)
			if r.Err() == nil {
				t.Fatalf("%s #%d: a %d-byte prefix of %d bytes decoded without error", name, i, cut, len(b))
			}
		}
	}
}

// TestCodecRoundTrip is the round-trip property over every wire type.
// Detections are decoded through their list decoder, which is where pixels
// move into an owned arena. A message batch round-trips everything but the
// observations' patches: the shard wire carries none, so a batch encodes to
// the same bytes with them as without and decodes with none.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	roundTrip(t, "BucketEID", rng, randBucketEID, appendBucketEID, readBucketEID)
	roundTrip(t, "ShardBucket", rng, randShardBucket, appendShardBucket, readShardBucket)
	roundTrip(t, "ShardSealed", rng, randShardSealed, appendShardSealed, readShardSealed)
	roundTrip(t, "SealedRefs", rng, randSealedRefs, appendSealedRefs, readSealedRefs)
	roundTrip(t, "ShardOut", rng, randShardOut, appendShardOut, readShardOut)
	roundTrip(t, "Resolution", rng, randResolution, appendResolution, readResolution)
	roundTrip(t, "[]Detection", rng,
		func(rng *rand.Rand) []scenario.Detection { return randSlice(rng, randDetection) },
		func(b []byte, d *[]scenario.Detection) []byte { return appendSlice(b, *d, appendDetection) },
		func(r *wire.Reader, d *[]scenario.Detection) { *d = readDetections(r) })
	// Observation and ShardMsg travel inside a batch.
	roundTrip(t, "[]ShardMsg", rng,
		func(rng *rand.Rand) []ShardMsg { return randSlice(rng, randShardMsg) },
		func(b []byte, ms *[]ShardMsg) []byte { return AppendShardMsgs(b, *ms) },
		func(r *wire.Reader, ms *[]ShardMsg) { *ms = ReadShardMsgs(r) })
	bare := []ShardMsg{randShardMsg(rng), randShardMsg(rng), randShardMsg(rng)}
	patched := append([]ShardMsg(nil), bare...)
	for i := range patched {
		p := randPatch(rng)
		patched[i].Obs.Patch = &p
	}
	if !bytes.Equal(AppendShardMsgs(nil, patched), AppendShardMsgs(nil, bare)) {
		t.Error("a message batch encodes differently with patches than without: a patch is on the shard wire")
	}
	roundTrip(t, "[]ShardOut", rng,
		func(rng *rand.Rand) []ShardOut { return randSlice(rng, randShardOut) },
		func(b []byte, outs *[]ShardOut) []byte { return AppendShardOuts(b, *outs) },
		func(r *wire.Reader, outs *[]ShardOut) { *outs = ReadShardOuts(r) })
}

// TestCodecDeterministicFromMaps: the two places a map feeds the codec — an
// open bucket's image and a sealed closure's wire form — produce identical
// bytes however the map happens to iterate, because both flatten through a
// sorted key list. Forty rebuilds of a 64-entry map would otherwise differ.
func TestCodecDeterministicFromMaps(t *testing.T) {
	build := func() (*bucket, ShardSealed) {
		b := &bucket{eids: make(map[ids.EID]scenario.Attr)}
		w := ShardSealed{Window: 2, Cell: 4, eids: make(map[ids.EID]scenario.Attr)}
		for i := 0; i < 64; i++ {
			eid := ids.EID(fmt.Sprintf("e-%02d", (i*37)%64))
			b.absorb(0, Observation{Kind: KindE, EID: eid, Attr: scenario.AttrVague})
			w.eids[eid] = scenario.AttrInclusive
		}
		return b, w
	}
	var firstBucket, firstSealed []byte
	for i := 0; i < 40; i++ {
		b, w := build()
		img := bucketToCheckpoint(bucketKey{Window: 2, Cell: 4}, b)
		gotBucket := appendShardBucket(nil, &img)
		gotSealed := appendSealedRefs(nil, &w)
		if i == 0 {
			firstBucket, firstSealed = gotBucket, gotSealed
			continue
		}
		if !bytes.Equal(gotBucket, firstBucket) || !bytes.Equal(gotSealed, firstSealed) {
			t.Fatalf("rebuild %d encoded differently", i)
		}
	}
}

// TestCodecRejectsHostileCounts: a list count far beyond what the input
// could hold is an error, at every nesting level, before any slice is sized.
func TestCodecRejectsHostileCounts(t *testing.T) {
	huge := wire.AppendUvarint(nil, 1<<62)
	huge = append(huge, 1, 2, 3)
	for name, read := range map[string]func(*wire.Reader){
		"ShardMsgs":  func(r *wire.Reader) { ReadShardMsgs(r) },
		"ShardOuts":  func(r *wire.Reader) { ReadShardOuts(r) },
		"Detections": func(r *wire.Reader) { readDetections(r) },
		"IDs":        func(r *wire.Reader) { readIDs[ids.EID](r) },
	} {
		r := wire.NewReader(huge)
		read(r)
		if !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, r.Err())
		}
	}
	// Two levels down: a well-formed emission and closure header, an empty
	// EID list, then a hostile reference count.
	nested := wire.AppendUvarint(nil, 1) // one emission
	for i := 0; i < 3; i++ {
		nested = wire.AppendVarint(nested, 0) // round, target, maxTS
	}
	nested = wire.AppendUvarint(nested, 1)     // one closure
	nested = wire.AppendVarint(nested, 0)      // window
	nested = wire.AppendVarint(nested, 0)      // cell
	nested = wire.AppendUvarint(nested, 0)     // EIDs
	nested = wire.AppendUvarint(nested, 1<<40) // Refs
	r := wire.NewReader(nested)
	if outs := ReadShardOuts(r); r.Err() == nil {
		t.Errorf("nested hostile count decoded: %+v", outs)
	}
}
