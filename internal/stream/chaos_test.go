package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"evmatching/internal/core"
)

// TestStreamCrashRestoreChaos replays the practical conformance log under
// seeded crash schedules: the consumer periodically checkpoints, randomly
// "crashes" (losing the engine and everything since the last checkpoint),
// restores from the checkpoint, and resumes the log from the restored
// ingested-count offset. Every schedule must finalize to the exact batch
// fingerprint — the golden pin shared with TestStreamGoldenEquivalence — so
// checkpoint/restore provably loses nothing and duplicates nothing.
func TestStreamCrashRestoreChaos(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:20]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := batchFingerprint(t, ds, targets, core.ModeSerial)
	// The practical-serial golden pin: crash/restore schedules must land on
	// the same conformance hash as the clean replay and the batch run.
	const wantHash = "25e495c8abf1c04522dc5e33d326b83a9ddcea4a3185c1dc5ce641eeafe688d5"

	schedules := int64(6)
	if testing.Short() {
		schedules = 2
	}
	for seed := int64(1); seed <= schedules; seed++ {
		t.Run(fmt.Sprintf("schedule-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			var checkpoint bytes.Buffer
			if err := e.Checkpoint(&checkpoint); err != nil {
				t.Fatalf("initial Checkpoint: %v", err)
			}
			crashes, checkpoints := 0, 0
			for i := 0; i < len(obs); {
				switch {
				case rng.Float64() < 0.002 && crashes < 5:
					// Crash: the engine and all progress since the last
					// checkpoint are gone. Restore and rewind the log cursor
					// to the checkpoint's offset.
					e, err = Restore(cfg, bytes.NewReader(checkpoint.Bytes()))
					if err != nil {
						t.Fatalf("Restore after crash %d: %v", crashes, err)
					}
					// Byte-identity invariant: re-checkpointing the restored
					// engine must reproduce the exact bytes it was restored
					// from — the checkpoint format has no nondeterminism and
					// restore loses nothing.
					var again bytes.Buffer
					if err := e.Checkpoint(&again); err != nil {
						t.Fatalf("re-Checkpoint after crash %d: %v", crashes, err)
					}
					if !bytes.Equal(again.Bytes(), checkpoint.Bytes()) {
						t.Fatalf("crash %d: re-checkpoint bytes differ from the checkpoint restored from (len %d vs %d)",
							crashes, again.Len(), checkpoint.Len())
					}
					i = int(e.Ingested())
					crashes++
				case rng.Float64() < 0.01:
					checkpoint.Reset()
					if err := e.Checkpoint(&checkpoint); err != nil {
						t.Fatalf("Checkpoint at %d: %v", i, err)
					}
					checkpoints++
				default:
					if _, err := e.Ingest(obs[i]); err != nil {
						t.Fatalf("Ingest %d: %v", i, err)
					}
					i++
				}
			}
			if crashes == 0 {
				t.Fatalf("schedule %d produced no crashes; widen the schedule", seed)
			}
			rep, err := e.Finalize(context.Background())
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			fp := rep.Fingerprint()
			if fp != want {
				t.Fatalf("crash/restore replay (crashes=%d checkpoints=%d) diverged from batch:\n--- batch\n%s\n--- stream\n%s",
					crashes, checkpoints, want, fp)
			}
			sum := sha256.Sum256([]byte(fp))
			if got := hex.EncodeToString(sum[:]); got != wantHash {
				t.Errorf("fingerprint hash = %s, want %s", got, wantHash)
			}
		})
	}
}

// TestCheckpointMidWindowState pins that a checkpoint taken with windows
// still open round-trips the open buckets: restoring and continuing must
// agree with an uninterrupted run even when the crash lands mid-window.
func TestCheckpointMidWindowState(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
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
	// Stop in the middle of the log — guaranteed mid-window for some cells.
	cut := len(obs)/2 + 7
	for _, o := range obs[:cut] {
		if _, err := e.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if e.OpenWindows() == 0 {
		t.Fatal("no open windows at the cut; the test exercises nothing")
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	restored, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := restored.Ingested(), int64(cut); got != want {
		t.Fatalf("restored offset %d, want %d", got, want)
	}
	if got, want := restored.Resolutions(), e.Resolutions(); len(got) != len(want) {
		t.Fatalf("restored %d resolutions, want %d", len(got), len(want))
	}
	for _, o := range obs[cut:] {
		if _, err := restored.Ingest(o); err != nil {
			t.Fatalf("Ingest after restore: %v", err)
		}
	}
	rep, err := restored.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("mid-window restore diverged:\n--- clean\n%s\n--- restored\n%s", want, got)
	}
}

// TestRestoreRejectsMismatchedConfig pins the checkpoint config guard.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:4]
	cfg := testConfig(ds, targets)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	bad := cfg
	bad.WindowMS = cfg.WindowMS * 2
	if _, err := Restore(bad, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Restore accepted a checkpoint with a different window length")
	}
	bad = cfg
	bad.Targets = targets[:3]
	if _, err := Restore(bad, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Restore accepted a checkpoint with a different target set")
	}
	if _, err := Restore(cfg, bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("Restore accepted garbage bytes")
	}
}
