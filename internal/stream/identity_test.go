package stream

import (
	"bytes"
	"fmt"
	"testing"

	"evmatching/internal/core"
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
	cfg := testConfig(ds, targets, core.ModeSerial)

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
