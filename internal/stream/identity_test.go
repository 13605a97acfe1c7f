package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// checkpointBytes serializes e and returns the raw checkpoint.
func checkpointBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointByteIdentity is the determinism property the codec holds by
// construction (sorted slices, fixed encodings — codec.go), checked
// dynamically: at any cut point of the log, checkpoint → restore →
// re-checkpoint is byte-identical, and checkpointing the same engine twice
// is byte-identical. A map walked in iteration order anywhere between the
// engine's state and the bytes fails this within a few runs.
func TestCheckpointByteIdentity(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)

	// Cut points: empty engine, mid-window interior cuts, and the full log.
	cuts := []int{0, len(obs) / 4, len(obs)/2 + 7, len(obs) - 1, len(obs)}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	next := 0
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			for ; next < cut; next++ {
				if _, err := e.Ingest(obs[next]); err != nil {
					t.Fatalf("Ingest %d: %v", next, err)
				}
			}
			first := checkpointBytes(t, e)
			if second := checkpointBytes(t, e); !bytes.Equal(first, second) {
				t.Fatalf("two checkpoints of the same engine differ (len %d vs %d)", len(first), len(second))
			}
			restored, err := Restore(cfg, bytes.NewReader(first))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if again := checkpointBytes(t, restored); !bytes.Equal(first, again) {
				t.Fatalf("re-checkpoint after restore differs (len %d vs %d)", len(first), len(again))
			}
			// Second generation: restore the re-checkpoint too, so drift
			// cannot hide as a stable-but-lossy first round trip.
			second, err := Restore(cfg, bytes.NewReader(first))
			if err != nil {
				t.Fatalf("second Restore: %v", err)
			}
			if again := checkpointBytes(t, second); !bytes.Equal(first, again) {
				t.Fatalf("second-generation checkpoint differs (len %d vs %d)", len(first), len(again))
			}
		})
	}
}

// TestCheckpointByteIdentityAcrossArrivalOrders is the same property across
// engines: two that were handed the same observations — redelivered batches
// and reshaped twins among them — in different arrival orders, cut mid-window,
// write the same bytes. An open bucket's image is the canonical form of what
// it holds, so neither the order its detections came in nor how often shows,
// and the image is no larger for the redeliveries.
func TestCheckpointByteIdentityAcrossArrivalOrders(t *testing.T) {
	ds := testDataset(t, true)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, ds.AllEIDs()[:8])
	once := withReshapedTwins(obs[:len(obs)/2+7])
	var redelivered []Observation
	for i, o := range once {
		redelivered = append(redelivered, o)
		if i%4 == 0 {
			redelivered = append(redelivered, o)
		}
	}
	image := func(arrival []Observation) ([]byte, *Engine) {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for i, o := range arrival {
			if accepted, err := e.Ingest(o); err != nil || !accepted {
				t.Fatalf("Ingest %d: accepted=%t err=%v", i, accepted, err)
			}
		}
		return checkpointBytes(t, e), e
	}
	want, e := image(redelivered)
	if e.win.openDets == 0 {
		t.Fatal("no detection is in an open bucket at the cut; the test exercises nothing")
	}
	for seed := int64(1); seed <= 3; seed++ {
		got, _ := image(boundedShuffle(redelivered, testLatenessMS, rand.New(rand.NewSource(seed))))
		if !bytes.Equal(got, want) {
			t.Errorf("shuffle %d: the same observations in another arrival order checkpoint to different bytes (len %d vs %d)", seed, len(got), len(want))
		}
	}
	// Without the redeliveries only the header's ingested count differs: the
	// open section holds each detection once either way.
	openSection := func(e *Engine) []byte {
		var b []byte
		for _, sb := range e.win.snapshot() {
			b = appendShardBucket(b, &sb)
		}
		return b
	}
	if _, lean := image(once); !bytes.Equal(openSection(lean), openSection(e)) {
		t.Error("redelivered observations show in the open buckets' images")
	}
	restored, err := Restore(cfg, bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again := checkpointBytes(t, restored); !bytes.Equal(again, want) {
		t.Error("re-checkpoint after restore differs")
	}
}

// TestResolutionStreamGolden pins the incremental output itself — every
// Resolution the sweep emits, in Seq order, every field — not just the
// finalized report: the sweep scores its targets on GOMAXPROCS goroutines
// (vfilter.MatchInOrder), and the stream it emits must not depend on how
// many there are. The inline engine and the sharded merger are both held to
// one sha256 at one, two and eight procs; the hash was taken from the
// one-target-at-a-time sweep this replaced.
func TestResolutionStreamGolden(t *testing.T) {
	const want = "2cb5f78f51adbf82d2aab90d82e9c5305f80df502bc960f0ee8f23ccd7e4eb24"
	ds := testDataset(t, true)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, ds.AllEIDs())
	for _, procs := range []int{1, 2, 8} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var p Processor
				if shards == 0 {
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					p = e
				} else {
					r, err := NewRouter(RouterConfig{Config: cfg, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					p = r
				}
				for i, o := range obs {
					if _, err := p.Ingest(o); err != nil {
						t.Fatalf("Ingest %d: %v", i, err)
					}
				}
				if err := p.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				res := p.Resolutions()
				if len(res) == 0 {
					t.Fatal("no resolutions emitted")
				}
				h := sha256.New()
				for _, r := range res {
					fmt.Fprintf(h, "%+v\n", r)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want {
					t.Errorf("%d resolutions hash to %s, want %s", len(res), got, want)
				}
			})
		}
	}
}
