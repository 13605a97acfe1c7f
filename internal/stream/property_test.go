package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"evmatching/internal/feature"
)

// boundedShuffle reorders observations by the key ts + u, with u drawn
// uniformly from [0, maxDisp) per observation and ties broken by original
// position. Any two observations swap order only if their timestamps differ
// by less than maxDisp — the bounded-displacement arrival model under which
// allowed lateness guarantees no drops (DESIGN.md §10).
func boundedShuffle(obs []Observation, maxDisp int64, rng *rand.Rand) []Observation {
	type keyed struct {
		key int64
		idx int
	}
	keys := make([]keyed, len(obs))
	for i := range obs {
		keys[i] = keyed{key: obs[i].TS + rng.Int63n(maxDisp), idx: i}
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	out := make([]Observation, len(obs))
	for i, k := range keys {
		out[i] = obs[k.idx]
	}
	return out
}

// withReshapedTwins follows every fifth V observation with a twin that shares
// its timestamp, bucket, VID, person and pixel bytes and differs only in the
// patch's shape (16×40 against 40×16) — two detections only the last keys of
// the fold's order tell apart, delivered in either order by a shuffle.
func withReshapedTwins(obs []Observation) []Observation {
	out := make([]Observation, 0, len(obs)+len(obs)/5)
	v := 0
	for _, o := range obs {
		out = append(out, o)
		if o.Kind != KindV {
			continue
		}
		if v++; v%5 == 0 {
			twin := o
			twin.Patch = &feature.Patch{W: o.Patch.H, H: o.Patch.W, Pix: o.Patch.Pix}
			out = append(out, twin)
		}
	}
	return out
}

// sealedBytes encodes every scenario the engine has folded, in store order,
// as a checkpoint would.
func sealedBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	cp, err := e.checkpointLocked(&e.front, nil)
	if err != nil {
		t.Fatalf("checkpointLocked: %v", err)
	}
	var b []byte
	for i := range cp.Scenarios {
		b = appendShardBucket(b, &cp.Scenarios[i])
	}
	return b
}

// TestPermutationInvariance is the subsystem's ordering property: any
// arrival permutation whose displacement stays within the allowed lateness
// yields the exact same sealed scenarios, byte for byte, and the same final
// fingerprint as the in-order replay, with no observation dropped as late.
// Bucket merging is order-independent, the fold puts detections in a total
// order — the log carries reshaped twins, which nothing short of one would
// order — and windows close only at the watermark, so the closed-scenario
// sequence, and with it everything downstream, is invariant.
func TestPermutationInvariance(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	obs = withReshapedTwins(obs)
	cfg := testConfig(ds, targets)
	inOrder, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, o := range obs {
		if _, err := inOrder.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	rep, err := inOrder.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	want, wantSealed := rep.Fingerprint(), sealedBytes(t, inOrder)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("shuffle-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			shuffled := boundedShuffle(obs, testLatenessMS, rng)
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for i, o := range shuffled {
				accepted, err := e.Ingest(o)
				if err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
				if !accepted {
					t.Fatalf("Ingest %d: observation within the lateness bound dropped (ts %d)", i, o.TS)
				}
			}
			if got := e.LateDropped(); got != 0 {
				t.Fatalf("LateDropped = %d under bounded displacement", got)
			}
			rep, err := e.Finalize(context.Background())
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if !bytes.Equal(sealedBytes(t, e), wantSealed) {
				t.Error("shuffled replay sealed different scenario bytes than the in-order replay")
			}
			if got := rep.Fingerprint(); got != want {
				t.Fatalf("shuffled replay diverged from in-order replay:\n--- in-order\n%s\n--- shuffled\n%s", want, got)
			}
		})
	}
}

// TestDuplicateInvariance: replaying every observation twice (an at-least-
// once delivery upstream) must not change the result — E merges are
// idempotent and detections deduplicate by full identity.
func TestDuplicateInvariance(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := replayFingerprint(t, cfg, obs)
	doubled := make([]Observation, 0, 2*len(obs))
	for _, o := range obs {
		doubled = append(doubled, o, o)
	}
	if got := replayFingerprint(t, cfg, doubled); got != want {
		t.Fatalf("duplicated replay diverged:\n--- once\n%s\n--- doubled\n%s", want, got)
	}
}

// TestLateDropInvariance: an observation arriving after its window closed is
// dropped and counted, and — when it duplicates data already ingested — the
// final result is unaffected.
func TestLateDropInvariance(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := replayFingerprint(t, cfg, obs)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	lates := 0
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
		// Periodically re-deliver the very first observation; once its
		// window has closed, the replay must be rejected as late.
		if i%500 == 499 {
			accepted, err := e.Ingest(obs[0])
			if err != nil {
				t.Fatalf("late re-delivery: %v", err)
			}
			if !accepted {
				lates++
			}
		}
	}
	if lates == 0 {
		t.Fatal("no re-delivery was ever late; test exercises nothing")
	}
	if got := e.LateDropped(); got != int64(lates) {
		t.Fatalf("LateDropped = %d, want %d", got, lates)
	}
	rep, err := e.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("late drops corrupted the result:\n--- clean\n%s\n--- with lates\n%s", want, got)
	}
}
