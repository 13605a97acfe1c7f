package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"

	"evmatching/internal/feature"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
	"evmatching/internal/wire"
)

// fuzzMaxLines bounds how many JSONL lines one fuzz execution replays, so a
// large input cannot turn a single exec into a long-running replay.
const fuzzMaxLines = 256

// injectingRunner is an honest in-process shard that, once armed, answers a
// close round twice: first with the emissions a fuzzed reply decoded to,
// re-stamped with the round so that they are read rather than dropped as a
// duplicate or a jump, then with its own.
type injectingRunner struct {
	outs  []ShardOut
	armed *atomic.Bool
}

func (ir injectingRunner) RunShard(run ShardRun) {
	w, err := NewShardWindower(run.Params, nil)
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
			if out == nil {
				continue
			}
			if ir.armed.Load() {
				for _, hostile := range ir.outs {
					hostile.Round, hostile.Target, hostile.MaxTS = out.Round, out.Target, out.MaxTS
					hostile.Sealed = append([]ShardSealed(nil), hostile.Sealed...)
					if !run.Emit(hostile) {
						return
					}
				}
			}
			if !run.Emit(*out) {
				return
			}
		}
	}
}

// refLogObservations is the known log the hostile-reference cases are written
// against. On one shard, journal position 1 is an E observation of window 0
// (folded and compacted by the time of the final flush), 2 a V observation of
// window 2 cell 5, 3 the close message it triggers, 4 and 5 an E and a V
// observation of window 2 in other buckets, and 6 a second V observation of
// window 2 cell 5, which sorts before the first.
func refLogObservations() []Observation {
	patch := &feature.Patch{W: 2, H: 2, Pix: []byte{1, 2, 3, 4}}
	return []Observation{
		{TS: 100, Kind: KindE, Cell: 3, EID: "e7", Attr: scenario.AttrInclusive},
		{TS: 2_400, Kind: KindV, Cell: 5, VID: "v9", Person: 2, Patch: patch},
		{TS: 2_500, Kind: KindE, Cell: 5, EID: "e7", Attr: scenario.AttrVague},
		{TS: 2_450, Kind: KindV, Cell: 6, VID: "v8", Person: 3, Patch: patch},
		{TS: 2_460, Kind: KindV, Cell: 5, VID: "v7", Person: 1, Patch: patch},
	}
}

// hostileRefCases are closures a shard might answer refLogObservations' flush
// round with, and whether the merge stage may fold them. What folds, folds to
// the bucket's detections in canonical order whatever order named them.
var hostileRefCases = []struct {
	name    string
	closure ShardSealed
	refused bool
}{
	{"honest", ShardSealed{Window: 2, Cell: 5, Refs: []int64{2, 6}}, false},
	{"out-of-order", ShardSealed{Window: 2, Cell: 5, Refs: []int64{6, 2}}, false},
	{"duplicate-apart", ShardSealed{Window: 2, Cell: 5, Refs: []int64{6, 2, 6}}, true},
	{"out-of-range", ShardSealed{Window: 2, Cell: 5, Refs: []int64{77}}, true},
	{"e-observation", ShardSealed{Window: 2, Cell: 5, Refs: []int64{4}}, true},
	{"close-message", ShardSealed{Window: 2, Cell: 5, Refs: []int64{3}}, true},
	{"other-bucket", ShardSealed{Window: 2, Cell: 5, Refs: []int64{5}}, true},
	{"duplicate", ShardSealed{Window: 2, Cell: 5, Refs: []int64{2, 2}}, true},
	{"compacted", ShardSealed{Window: 2, Cell: 5, Refs: []int64{1}}, true},
	{"compacted-window", ShardSealed{Window: 0, Cell: 3, Refs: []int64{1}}, true},
	{"unclosed-window", ShardSealed{Window: 3, Cell: 5}, true},
}

// TestHostileReferencesRefused pins, case by case, what the fuzzer holds for
// any input: a closure whose references the journal does not bear out fails
// the router with ErrBadShardReply and none of it reaches the store.
func TestHostileReferencesRefused(t *testing.T) {
	for _, c := range hostileRefCases {
		t.Run(c.name, func(t *testing.T) {
			armed := new(atomic.Bool)
			r, err := NewRouter(RouterConfig{
				Config: Config{Targets: []ids.EID{"e7"}, WindowMS: 1_000, LatenessMS: 250, Dim: 8},
				Runner: injectingRunner{[]ShardOut{{Sealed: []ShardSealed{c.closure}}}, armed},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i, o := range refLogObservations() {
				if _, err := r.Ingest(o); err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
			}
			if err := r.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
			folded := storeLen(r)
			armed.Store(true)
			err = r.Flush()
			if !c.refused {
				if err != nil || storeLen(r) <= folded {
					t.Fatalf("Flush = %v with %d scenarios folded (%d before)", err, storeLen(r), folded)
				}
				dets := r.merged.store.V(scenario.ID(folded)).Detections
				if len(dets) != 2 || dets[0].VID != "v7" || dets[1].VID != "v9" {
					t.Fatalf("the closure folded to %+v, want v7 then v9", dets)
				}
				return
			}
			if !errors.Is(err, ErrBadShardReply) {
				t.Fatalf("Flush = %v, want ErrBadShardReply", err)
			}
			if after := storeLen(r); after != folded {
				t.Fatalf("a refused reply was folded: %d scenarios in the store, %d before it", after, folded)
			}
			if _, err := r.Ingest(refLogObservations()[1]); !errors.Is(err, ErrBadShardReply) {
				t.Fatalf("Ingest after a refused reply = %v, want the error to stick", err)
			}
		})
	}
}

// storeLen reads how many scenarios the router's merge stage has folded.
func storeLen(r *Router) int {
	r.merged.mu.Lock()
	defer r.merged.mu.Unlock()
	return r.merged.store.Len()
}

// FuzzRouterObservation feeds hostile observation JSONL through two
// identically configured routers and requires them to behave identically:
// same accept/drop/error decision per line, same counters, and byte-equal
// checkpoints afterwards. Alongside the never-panic guarantee, this pins the
// property sharding correctness rests on — routing and the late-drop
// decision are deterministic functions of the observation, never of
// goroutine interleaving — and that out-of-range cells, reordered
// timestamps, and duplicate deliveries are all either rejected or routed to
// a stable in-range shard.
//
// The third argument is a hostile shard: it decodes as the emissions of an
// Apply reply, and a third router, fed the same lines, gets them as every
// shard's first answer to the final flush round. A reply names detections by
// journal position; whatever it names, the router folds the round or fails
// with ErrBadShardReply having folded nothing of it — no panic, no index.
func FuzzRouterObservation(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	vec := make(feature.Vector, 8)
	for i := range vec {
		vec[i] = rng.Float64()
	}
	patch := feature.EncodePatch(vec, 1, rng)
	mustLine := func(o Observation) []byte {
		b, err := json.Marshal(o)
		if err != nil {
			f.Fatalf("marshal seed: %v", err)
		}
		return b
	}
	eLine := mustLine(Observation{TS: 100, Kind: KindE, Cell: 3, EID: "e7", Attr: scenario.AttrInclusive})
	vLine := mustLine(Observation{TS: 2_400, Kind: KindV, Cell: 5, VID: "v9", Person: 2, Patch: &patch})
	late := mustLine(Observation{TS: 0, Kind: KindE, Cell: 1, EID: "e2", Attr: scenario.AttrVague})

	f.Add(append(append(append([]byte{}, eLine...), '\n'), vLine...), byte(3), []byte(nil))
	f.Add(bytes.Join([][]byte{vLine, eLine, eLine, late}, []byte("\n")), byte(7), []byte(nil))
	f.Add([]byte(`{"ts":-5,"kind":1,"cell":2,"eid":"e1","attr":1}`), byte(1), []byte(nil))
	f.Add([]byte(`{"ts":10,"kind":1,"cell":-44,"eid":"e1","attr":1}`), byte(4), []byte(nil))
	f.Add([]byte(`{"ts":10,"kind":2,"cell":9007199254740993,"vid":"v1","patch":{"w":-3,"h":-7,"pix":"AAAA"}}`), byte(2), []byte(nil))
	f.Add([]byte("{\"kind\":\"header\",\"version\":1}\nnot json at all\n\x00\xff"), byte(5), []byte(nil))
	f.Add([]byte(`{"ts":9223372036854775807,"kind":1,"cell":0,"eid":"e3","attr":2}`), byte(6), []byte(nil))
	var refLog [][]byte
	for _, o := range refLogObservations() {
		refLog = append(refLog, mustLine(o))
	}
	for _, c := range hostileRefCases {
		f.Add(bytes.Join(refLog, []byte("\n")), byte(0), AppendShardOuts(nil, []ShardOut{{Sealed: []ShardSealed{c.closure}}}))
	}

	f.Fuzz(func(t *testing.T, data []byte, nshards byte, reply []byte) {
		shards := int(nshards%8) + 1
		rd := wire.NewReader(reply)
		hostile := ReadShardOuts(rd)
		if rd.Err() != nil || len(hostile) > 8 {
			hostile = nil
		}
		armed := new(atomic.Bool)
		mk := func(runner ShardRunner) *Router {
			r, err := NewRouter(RouterConfig{
				Config: Config{
					Targets:    []ids.EID{"e2", "e7", "t1"},
					WindowMS:   1_000,
					LatenessMS: 250,
					Dim:        8,
					Seed:       1,
				},
				Shards: shards,
				Runner: runner,
			})
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			return r
		}
		r1, r2 := mk(nil), mk(nil)
		defer r1.Close()
		defer r2.Close()
		var r3 *Router
		if hostile != nil {
			r3 = mk(injectingRunner{hostile, armed})
			defer r3.Close()
		}

		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for lines := 0; lines < fuzzMaxLines && sc.Scan(); lines++ {
			var o Observation
			if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
				continue
			}
			if o.Cell >= 0 {
				s := ShardOf(o.Cell, shards)
				if s < 0 || s >= shards {
					t.Fatalf("ShardOf(%d, %d) = %d out of range", o.Cell, shards, s)
				}
			}
			acc1, err1 := r1.Ingest(o)
			acc2, err2 := r2.Ingest(o)
			if acc1 != acc2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("nondeterministic ingest: (%v, %v) vs (%v, %v) for %s", acc1, err1, acc2, err2, sc.Bytes())
			}
			if r3 != nil {
				r3.Ingest(o)
			}
		}
		if a, b := r1.Ingested(), r2.Ingested(); a != b {
			t.Fatalf("Ingested diverged: %d vs %d", a, b)
		}
		if a, b := r1.LateDropped(), r2.LateDropped(); a != b {
			t.Fatalf("LateDropped diverged: %d vs %d", a, b)
		}
		var cp1, cp2 bytes.Buffer
		errA, errB := r1.Checkpoint(&cp1), r2.Checkpoint(&cp2)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("nondeterministic checkpoint: %v vs %v", errA, errB)
		}
		if errA == nil && !bytes.Equal(cp1.Bytes(), cp2.Bytes()) {
			t.Fatal("identical ingest produced different checkpoints")
		}
		if r3 == nil || r3.Checkpoint(io.Discard) != nil { // the fold barrier
			return
		}
		folded := storeLen(r3)
		armed.Store(true)
		if err := r3.Flush(); err != nil {
			if !errors.Is(err, ErrBadShardReply) {
				t.Fatalf("Flush over a hostile reply: err = %v, want ErrBadShardReply", err)
			}
			if after := storeLen(r3); after != folded {
				t.Fatalf("a refused reply was folded: %d scenarios in the store, %d before it", after, folded)
			}
		}
	})
}
