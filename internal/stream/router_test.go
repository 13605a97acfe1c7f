package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/geo"
)

// shardInvarianceShardCounts is the shard battery every invariance property
// runs across: the degenerate single shard, small counts that leave some
// shards with many cells, and a count likely to exceed the busiest cells.
var shardInvarianceShardCounts = []int{1, 2, 3, 8}

// shardDataset is the dedicated workload for the shard-invariance golden
// pins — deliberately distinct from testDataset so the pins below guard new
// fingerprints rather than re-pinning the unsharded suite's.
func shardDataset(t *testing.T, practical bool) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 50
	cfg.Density = 6
	cfg.NumWindows = 12
	cfg.Seed = 3
	if practical {
		cfg = cfg.Practical()
		cfg.EIDMissingRate = 0.08
		cfg.VIDMissingRate = 0.04
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

// routerFingerprint streams the observations through a fresh router with the
// given shard count and finalizes, requiring every observation accepted. The
// fingerprint is finalFingerprint's under mode.
func routerFingerprint(t *testing.T, rcfg RouterConfig, obs []Observation, mode core.Mode) string {
	t.Helper()
	r, err := NewRouter(rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	for i, o := range obs {
		accepted, err := r.Ingest(o)
		if err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
		if !accepted {
			t.Fatalf("Ingest %d: in-order observation dropped as late", i)
		}
	}
	return finalFingerprint(t, r, mode)
}

// TestShardOfStable pins the cell → shard assignment. It is part of the
// checkpoint contract: restore redistributes buckets with ShardOf, so
// changing the assignment silently invalidates existing checkpoints.
func TestShardOfStable(t *testing.T) {
	cases := []struct {
		cell   geo.CellID
		shards int
		want   int
	}{
		{0, 1, 0}, {17, 1, 0},
		{0, 4, 0}, {1, 4, 1}, {5, 4, 1}, {7, 4, 3},
		{41, 8, 1}, {1000003, 7, 4},
	}
	for _, tc := range cases {
		if got := ShardOf(tc.cell, tc.shards); got != tc.want {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", tc.cell, tc.shards, got, tc.want)
		}
	}
}

// TestShardInvarianceGolden is the tentpole invariant: for every shard count
// the sharded replay's fingerprint is byte-identical to the unsharded stream
// replay AND to the batch SS reference over the original dataset. The sha256
// pins freeze all three paths at once on a dedicated workload.
func TestShardInvarianceGolden(t *testing.T) {
	cases := []struct {
		name      string
		practical bool
		mode      core.Mode
		want      string
	}{
		{"ideal-serial", false, core.ModeSerial,
			"3e0a02707e629de5dad8e6a5a6f135bf698c7be0f8fc18583b2005894200fe71"},
		{"practical-serial", true, core.ModeSerial,
			"e03713546448faa41e04d139ef8304ead2c11fa67e97d0186e7ab09e512f5b2e"},
		{"practical-parallel", true, core.ModeParallel,
			"a093882f68d3e321006251d7302bca42e014966bc9348bdc8867fc3dac59b3ee"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := shardDataset(t, tc.practical)
			targets := ds.AllEIDs()[:16]
			_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
			if err != nil {
				t.Fatalf("EventsFromDataset: %v", err)
			}
			cfg := testConfig(ds, targets)
			batch := batchFingerprint(t, ds, targets, tc.mode)
			unsharded := finalFingerprint(t, replayEngine(t, cfg, obs), tc.mode)
			if unsharded != batch {
				t.Fatalf("unsharded replay diverged from batch:\n--- batch\n%s\n--- stream\n%s", batch, unsharded)
			}
			sum := sha256.Sum256([]byte(unsharded))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("fingerprint hash = %s, want %s (match results changed)", got, tc.want)
			}
			for _, shards := range shardInvarianceShardCounts {
				got := routerFingerprint(t, RouterConfig{Config: cfg, Shards: shards}, obs, tc.mode)
				if got != unsharded {
					t.Fatalf("%d-shard replay diverged from unsharded:\n--- unsharded\n%s\n--- sharded\n%s", shards, unsharded, got)
				}
			}
		})
	}
}

// TestShardPermutationInvariance extends the bounded-displacement ordering
// property to the sharded path: any arrival permutation within the allowed
// lateness yields the same fingerprint at every shard count, with nothing
// dropped.
func TestShardPermutationInvariance(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets)
	want := replayFingerprint(t, cfg, obs)
	for _, shards := range []int{2, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards-%d-shuffle-%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				shuffled := boundedShuffle(obs, testLatenessMS, rng)
				r, err := NewRouter(RouterConfig{Config: cfg, Shards: shards})
				if err != nil {
					t.Fatalf("NewRouter: %v", err)
				}
				defer r.Close()
				for i, o := range shuffled {
					accepted, err := r.Ingest(o)
					if err != nil {
						t.Fatalf("Ingest %d: %v", i, err)
					}
					if !accepted {
						t.Fatalf("Ingest %d: observation within the lateness bound dropped (ts %d)", i, o.TS)
					}
				}
				if got := r.LateDropped(); got != 0 {
					t.Fatalf("LateDropped = %d under bounded displacement", got)
				}
				rep, err := r.Finalize(context.Background())
				if err != nil {
					t.Fatalf("Finalize: %v", err)
				}
				if got := rep.Fingerprint(); got != want {
					t.Fatalf("sharded shuffled replay diverged from in-order unsharded replay")
				}
			})
		}
	}
}

// TestShardDuplicateInvariance pins at-least-once tolerance per shard:
// delivering every observation twice changes nothing at any shard count,
// because duplicates route to the same shard and bucket merging is
// idempotent.
func TestShardDuplicateInvariance(t *testing.T) {
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
	for _, shards := range shardInvarianceShardCounts {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			got := routerFingerprint(t, RouterConfig{Config: cfg, Shards: shards}, doubled, core.ModeSerial)
			if got != want {
				t.Fatalf("%d-shard duplicated replay diverged from single-delivery replay", shards)
			}
		})
	}
}

// TestRouterLateDropParity pins that sharding does not change the accept /
// late-drop decision: the router and the unsharded engine, fed the same
// out-of-bound sequence, drop exactly the same observations.
func TestRouterLateDropParity(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	// Re-deliver an early observation periodically; once the watermark moves
	// past its window these re-deliveries are late.
	withLate := make([]Observation, 0, len(obs)+len(obs)/400)
	for i, o := range obs {
		withLate = append(withLate, o)
		if i > 0 && i%400 == 0 {
			withLate = append(withLate, obs[0])
		}
	}
	cfg := testConfig(ds, targets)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var engineAccepts []bool
	for i, o := range withLate {
		acc, err := e.Ingest(o)
		if err != nil {
			t.Fatalf("engine Ingest %d: %v", i, err)
		}
		engineAccepts = append(engineAccepts, acc)
	}
	if e.LateDropped() == 0 {
		t.Fatal("workload produced no late observations; the parity check is vacuous")
	}
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			r, err := NewRouter(RouterConfig{Config: cfg, Shards: shards})
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			defer r.Close()
			for i, o := range withLate {
				acc, err := r.Ingest(o)
				if err != nil {
					t.Fatalf("router Ingest %d: %v", i, err)
				}
				if acc != engineAccepts[i] {
					t.Fatalf("Ingest %d: router accepted=%v, engine accepted=%v", i, acc, engineAccepts[i])
				}
			}
			if got, want := r.LateDropped(), e.LateDropped(); got != want {
				t.Fatalf("LateDropped = %d, engine dropped %d", got, want)
			}
			if got, want := r.Ingested(), e.Ingested(); got != want {
				t.Fatalf("Ingested = %d, engine ingested %d", got, want)
			}
		})
	}
}

func TestRouterConfigValidation(t *testing.T) {
	ds := testDataset(t, false)
	base := testConfig(ds, ds.AllEIDs()[:4])
	cases := []struct {
		name string
		mut  func(*RouterConfig)
	}{
		{"negative-shards", func(c *RouterConfig) { c.Shards = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := RouterConfig{Config: base}
			tc.mut(&rcfg)
			if r, err := NewRouter(rcfg); !errors.Is(err, ErrBadConfig) {
				if err == nil {
					r.Close()
				}
				t.Fatalf("NewRouter: err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestRouterClosed(t *testing.T) {
	ds := testDataset(t, false)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	r, err := NewRouter(RouterConfig{Config: testConfig(ds, ds.AllEIDs()[:4]), Shards: 3})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.Ingest(obs[0]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.Ingest(obs[1]); err != ErrRouterClosed {
		t.Fatalf("Ingest after Close: err = %v, want ErrRouterClosed", err)
	}
	if err := r.Flush(); err != ErrRouterClosed {
		t.Fatalf("Flush after Close: err = %v, want ErrRouterClosed", err)
	}
	if err := r.Checkpoint(nil); err != ErrRouterClosed {
		t.Fatalf("Checkpoint after Close: err = %v, want ErrRouterClosed", err)
	}
}

// runnerFunc adapts a function to ShardRunner.
type runnerFunc func(ShardRun)

func (f runnerFunc) RunShard(run ShardRun) { f(run) }

// TestProcessorParity holds every composition of the shared front-end to the
// same observable behaviour, observation by observation: over a log displaced
// past the lateness bound (so some arrivals are genuinely late) and salted
// with stale re-deliveries, the Engine, routers at two shard counts and a
// router handed RunShardInProcess through the Runner seam return the same
// accepted flag and read the same Ingested, LateDropped, OpenWindows and
// Watermark after each Ingest, write the same checkpoint bytes at every cut,
// and finalize to the same fingerprint.
func TestProcessorParity(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	obs = obs[:len(obs)/2]
	displaced := boundedShuffle(obs, 4*testLatenessMS, rand.New(rand.NewSource(11)))
	log := make([]Observation, 0, len(displaced)+len(displaced)/300)
	for i, o := range displaced {
		log = append(log, o)
		if i > 0 && i%300 == 0 {
			log = append(log, displaced[i/2])
		}
	}

	type reading struct {
		accepted       bool
		ingested, late int64
		open           int
		watermark      int64
		observed       bool
	}
	// Checkpoint cuts: before anything, inside the first windows, mid-log
	// with late arrivals behind it, and after the last observation.
	cuts := []int{0, len(log) / 5, len(log)/2 + 3}
	replay := func(t *testing.T, p Processor, want []reading, wantImages [][]byte) ([]reading, [][]byte, string) {
		t.Helper()
		got := make([]reading, 0, len(log))
		var images [][]byte
		checkpoint := func(at int) {
			var buf bytes.Buffer
			if err := p.Checkpoint(&buf); err != nil {
				t.Fatalf("Checkpoint at %d: %v", at, err)
			}
			if wantImages != nil && !bytes.Equal(buf.Bytes(), wantImages[len(images)]) {
				t.Fatalf("checkpoint at observation %d differs from the engine's (%d vs %d bytes)", at, buf.Len(), len(wantImages[len(images)]))
			}
			images = append(images, buf.Bytes())
		}
		for i, o := range log {
			if slices.Contains(cuts, i) {
				checkpoint(i)
			}
			acc, err := p.Ingest(o)
			if err != nil {
				t.Fatalf("Ingest %d: %v", i, err)
			}
			wm, ok := p.Watermark()
			r := reading{acc, p.Ingested(), p.LateDropped(), p.OpenWindows(), wm, ok}
			if want != nil && r != want[i] {
				t.Fatalf("after observation %d (ts %d): %+v, engine read %+v", i, o.TS, r, want[i])
			}
			got = append(got, r)
		}
		checkpoint(len(log))
		rep, err := p.Finalize(context.Background())
		if err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		if p.OpenWindows() != 0 {
			t.Errorf("%d windows open after Finalize", p.OpenWindows())
		}
		return got, images, rep.Fingerprint()
	}

	cfg := testConfig(ds, targets)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want, wantImages, wantPrint := replay(t, e, nil, nil)
	if e.LateDropped() == 0 || e.LateDropped() == e.Ingested() {
		t.Fatalf("%d of %d observations late; the parity check is vacuous", e.LateDropped(), e.Ingested())
	}
	for name, rcfg := range map[string]RouterConfig{
		"shards-1": {Config: cfg, Shards: 1},
		"shards-3": {Config: cfg, Shards: 3},
		"runner-2": {Config: cfg, Shards: 2, Runner: runnerFunc(RunShardInProcess)},
	} {
		t.Run(name, func(t *testing.T) {
			r, err := NewRouter(rcfg)
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			defer r.Close()
			if _, _, got := replay(t, r, want, wantImages); got != wantPrint {
				t.Errorf("fingerprint diverged from the engine's:\n--- engine\n%s\n--- router\n%s", wantPrint, got)
			}
		})
	}
}
