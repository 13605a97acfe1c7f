package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// routerCheckpointBytes serializes r and returns the raw router image.
func routerCheckpointBytes(t *testing.T, r *Router) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestRouterCheckpointByteIdentity extends the checkpoint determinism
// property to the sharded format: at any cut point of the log, a 3-shard
// router's checkpoint → restore → re-checkpoint is byte-identical, across
// two generations. The barrier inside Checkpoint makes the image a
// consistent cut, so the property holds even at mid-window cuts where every
// shard holds open buckets.
func TestRouterCheckpointByteIdentity(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	rcfg := RouterConfig{Config: testConfig(ds, targets), Shards: 3}

	cuts := []int{0, len(obs) / 4, len(obs)/2 + 7, len(obs) - 1, len(obs)}
	r, err := NewRouter(rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	next := 0
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			for ; next < cut; next++ {
				if _, err := r.Ingest(obs[next]); err != nil {
					t.Fatalf("Ingest %d: %v", next, err)
				}
			}
			first := routerCheckpointBytes(t, r)
			if second := routerCheckpointBytes(t, r); !bytes.Equal(first, second) {
				t.Fatalf("two checkpoints of the same router differ (len %d vs %d)", len(first), len(second))
			}
			restored, err := RestoreRouter(rcfg, bytes.NewReader(first))
			if err != nil {
				t.Fatalf("RestoreRouter: %v", err)
			}
			defer restored.Close()
			if again := routerCheckpointBytes(t, restored); !bytes.Equal(first, again) {
				t.Fatalf("re-checkpoint after restore differs (len %d vs %d)", len(first), len(again))
			}
			second, err := RestoreRouter(rcfg, bytes.NewReader(first))
			if err != nil {
				t.Fatalf("second RestoreRouter: %v", err)
			}
			defer second.Close()
			if again := routerCheckpointBytes(t, second); !bytes.Equal(first, again) {
				t.Fatalf("second-generation checkpoint differs (len %d vs %d)", len(first), len(again))
			}
		})
	}
}

// TestRouterCheckpointResume checks the functional half of the contract: a
// router checkpointed mid-log and restored — under the same shard count or a
// different one, since restore redistributes buckets by ShardOf — resumes
// the log and finalizes to the exact unsharded fingerprint.
func TestRouterCheckpointResume(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := replayFingerprint(t, cfg, obs)

	cut := len(obs)/2 + 3
	src, err := NewRouter(RouterConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer src.Close()
	for i := 0; i < cut; i++ {
		if _, err := src.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	image := routerCheckpointBytes(t, src)

	for _, shards := range []int{3, 1, 5} {
		t.Run(fmt.Sprintf("restore-into-%d-shards", shards), func(t *testing.T) {
			r, err := RestoreRouter(RouterConfig{Config: cfg, Shards: shards}, bytes.NewReader(image))
			if err != nil {
				t.Fatalf("RestoreRouter: %v", err)
			}
			defer r.Close()
			if got := r.Ingested(); got != int64(cut) {
				t.Fatalf("Ingested = %d after restore, want %d", got, cut)
			}
			for i := cut; i < len(obs); i++ {
				if _, err := r.Ingest(obs[i]); err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
			}
			rep, err := r.Finalize(context.Background())
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if got := rep.Fingerprint(); got != want {
				t.Fatalf("resumed %d-shard replay diverged from unsharded replay", shards)
			}
		})
	}
}

// TestRouterRestoresEngineImage is the upgrade path: an unsharded engine's
// image restores into a router — the degenerate 1-shard case and a
// redistributing 4-shard case — which resumes the log to the same
// fingerprint. The reverse direction resumes too: Restore takes a 2-shard
// router's image into an engine.
func TestRouterRestoresEngineImage(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := replayFingerprint(t, cfg, obs)

	cut := len(obs)/3 + 11
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < cut; i++ {
		if _, err := e.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	image := checkpointBytes(t, e)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("into-%d-shards", shards), func(t *testing.T) {
			r, err := RestoreRouter(RouterConfig{Config: cfg, Shards: shards}, bytes.NewReader(image))
			if err != nil {
				t.Fatalf("RestoreRouter(engine image): %v", err)
			}
			defer r.Close()
			if got := r.Ingested(); got != int64(cut) {
				t.Fatalf("Ingested = %d after restore, want %d", got, cut)
			}
			for i := cut; i < len(obs); i++ {
				if _, err := r.Ingest(obs[i]); err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
			}
			rep, err := r.Finalize(context.Background())
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if got := rep.Fingerprint(); got != want {
				t.Fatalf("engine image resumed on %d shards diverged from unsharded replay", shards)
			}
		})
	}

	t.Run("engine-restores-router-image", func(t *testing.T) {
		r, err := NewRouter(RouterConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		defer r.Close()
		for i := 0; i < cut; i++ {
			if _, err := r.Ingest(obs[i]); err != nil {
				t.Fatalf("Ingest %d: %v", i, err)
			}
		}
		e, err := Restore(cfg, bytes.NewReader(routerCheckpointBytes(t, r)))
		if err != nil {
			t.Fatalf("Restore(router image): %v", err)
		}
		for i := cut; i < len(obs); i++ {
			if _, err := e.Ingest(obs[i]); err != nil {
				t.Fatalf("Ingest %d: %v", i, err)
			}
		}
		rep, err := e.Finalize(context.Background())
		if err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		if got := rep.Fingerprint(); got != want {
			t.Fatal("router image resumed on an engine diverged from unsharded replay")
		}
	})
}

// TestRouterRestoreRejectsMismatchedConfig mirrors the engine guard: a
// checkpoint only restores into a router windowing and matching identically.
func TestRouterRestoreRejectsMismatchedConfig(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:4]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	r, err := NewRouter(RouterConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	for i := 0; i < 200 && i < len(obs); i++ {
		if _, err := r.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	image := routerCheckpointBytes(t, r)

	bad := cfg
	bad.Seed = cfg.Seed + 1
	if _, err := RestoreRouter(RouterConfig{Config: bad, Shards: 2}, bytes.NewReader(image)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("mismatched seed: err = %v, want ErrBadCheckpoint", err)
	}
	if _, err := RestoreRouter(RouterConfig{Config: cfg, Shards: 2}, bytes.NewReader(image[:len(image)/2])); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("truncated image: err = %v, want ErrBadCheckpoint", err)
	}
}
